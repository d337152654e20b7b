"""Model parameters and angular-momentum sector combinatorics.

A central spin-1/2 with level splitting ``omega0`` couples to ``N`` bath
spins with a uniform Heisenberg exchange constant ``A``.  The bath Hilbert
space decomposes into sectors labelled either by the eigenvalue ``m`` of the
collective bath operator J_3, or by the simultaneous eigenvalues ``(j, m)``
of J^2 and J_3.  Everything downstream (the exact solution and the sector
master equations) consumes only

* the sector weights ``N_m / 2^N`` and probabilities ``p(j)``,
* the detuning frequencies ``Omega_+(m)``, ``Omega_-(m)``,
* the Rabi frequencies ``mu_+(j, m)``, ``mu_-(j, m)``,
* the flip coefficients ``b(j, +-m) = j(j+1) - m(m +- 1)``,

gathered per sector of the ``m`` or ``jm`` family by ``sector_family``.

Half-integer quantum numbers are stored as doubled integers (``two_j``,
``two_m``) so that sector identities are exact and usable as keys.

Binomials are evaluated with exact integer arithmetic up to
``EXACT_BINOMIAL_MAX_N`` and in log space (``gammaln``) beyond that, using a
cancellation-free product form of the multiplicity ``N_j`` instead of a
difference of two nearly equal binomials.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

__all__ = [
    "SystemParams",
    "SectorM",
    "SectorJM",
    "EXACT_BINOMIAL_MAX_N",
    "weight_m",
    "multiplicity_j",
    "prob_j",
    "sector_frequencies",
    "mu",
    "alpha",
    "coupling_from_alpha",
    "b_coeff",
    "two_m_values",
    "jm_sector_table",
    "weights_m_array",
    "weights_jm_array",
    "prob_j_array",
    "SectorFamily",
    "sector_family",
]

#: largest N for which binomial weights are computed in exact integer
#: arithmetic (cheap even for 600-digit binomials; the log-space fallback
#: loses ~N eps of relative accuracy and is kept for truly huge baths only)
EXACT_BINOMIAL_MAX_N = 4096

_LOG2 = math.log(2.0)

#: rounding slack of the positivity test |coh|^2 <= p(1-p) on the initial state
_PSD_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Model constants plus the initial state of the central spin.

    Attributes:
        N: number of bath spins (>= 1).
        A: Heisenberg coupling constant (angular frequency units, any sign).
        omega0: central-spin level splitting (> 0).
        initial_p_plus: initial upper-state population, in [0, 1].
        initial_coh: initial coherence rho_{+-}(0) (complex).

    The dynamics is linear, so Hermitian initial data with
    ``|initial_coh|^2 > p(1-p)`` (not a positive matrix) is accepted and
    propagated faithfully; a warning flags that it is not a physical qubit
    state.
    """

    N: int
    A: float
    omega0: float
    initial_p_plus: float = 1.0
    initial_coh: complex = 0.0j

    def __post_init__(self):
        if not math.isfinite(self.N) or int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        if not (self.omega0 > 0.0) or not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if not math.isfinite(self.A):
            raise ValueError("A must be finite")
        p = self.initial_p_plus
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"initial_p_plus must lie in [0, 1], got {p}")
        c = complex(self.initial_coh)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("initial_coh must be finite")
        if not self.is_physical:
            warnings.warn(
                "initial state is not positive semidefinite "
                f"(|coh|^2 = {abs(c)**2:.3g} > p(1-p) = {p*(1.0-p):.3g}); "
                "propagating it linearly anyway",
                stacklevel=2,
            )

    @property
    def is_physical(self) -> bool:
        """True if (initial_p_plus, initial_coh) describes a valid qubit state."""
        c = abs(complex(self.initial_coh)) ** 2
        return c <= self.initial_p_plus * (1.0 - self.initial_p_plus) + _PSD_TOL

    @property
    def rho_s0(self) -> np.ndarray:
        """Initial 2x2 central-spin matrix in the {|+>, |->} basis."""
        p = self.initial_p_plus
        c = complex(self.initial_coh)
        return np.array([[p, c], [c.conjugate(), 1.0 - p]], dtype=complex)


@dataclass(frozen=True, order=True)
class SectorM:
    """A J_3 sector of the bath; ``two_m`` is twice the eigenvalue m."""

    two_m: int

    @property
    def m(self) -> float:
        return 0.5 * self.two_m


@dataclass(frozen=True, order=True)
class SectorJM:
    """A simultaneous (J^2, J_3) sector; doubled integers keep half-integers exact."""

    two_j: int
    two_m: int

    def __post_init__(self):
        if self.two_j < 0:
            raise ValueError(f"two_j must be >= 0, got {self.two_j}")
        if abs(self.two_m) > self.two_j or (self.two_m - self.two_j) % 2 != 0:
            raise ValueError(f"invalid m for j: two_j={self.two_j}, two_m={self.two_m}")

    @property
    def j(self) -> float:
        return 0.5 * self.two_j

    @property
    def m(self) -> float:
        return 0.5 * self.two_m


def _check_two_m(N: int, two_m: int) -> None:
    if abs(two_m) > N or (two_m - N) % 2 != 0:
        raise ValueError(f"invalid J_3 sector: N={N}, two_m={two_m}")


def _check_two_j(N: int, two_j: int) -> None:
    if not (0 <= two_j <= N) or (two_j - N) % 2 != 0:
        raise ValueError(f"invalid J^2 sector: N={N}, two_j={two_j}")


def _log_binom(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def weight_m(params: SystemParams, s: SectorM) -> float:
    """Sector weight w_m = N_m / 2^N, the fraction of bath states with J_3 = m.

    N_m = C(N, N/2 + m) is the degeneracy of the eigenvalue m.  Exact
    integer arithmetic for N <= EXACT_BINOMIAL_MAX_N, log space beyond.
    """
    N = params.N
    _check_two_m(N, s.two_m)
    k = (N + s.two_m) // 2
    if N <= EXACT_BINOMIAL_MAX_N:
        return float(Fraction(math.comb(N, k), 1 << N))
    return float(np.exp(_log_binom(N, k) - N * _LOG2))


def multiplicity_j(N: int, two_j: int) -> int:
    """Multiplicity N_j: how often total bath spin j occurs in the N-spin decomposition.

    Evaluated through the cancellation-free identity
    ``N_j = C(N, N/2 + j) * (2j + 1) / (N/2 + j + 1)``, which is exactly the
    binomial difference ``C(N, N/2+j) - C(N, N/2+j+1)`` without subtractive
    cancellation.  Exact integers only (N must be <= a few thousand for this
    to stay fast; the result is arbitrary precision).
    """
    _check_two_j(N, two_j)
    k = (N + two_j) // 2
    num = math.comb(N, k) * (two_j + 1)
    den = k + 1
    q, r = divmod(num, den)
    if r != 0:  # cannot happen: N_j is an integer by construction
        raise AssertionError(f"non-integer multiplicity for N={N}, two_j={two_j}")
    return q


def _log_multiplicity_j(N, two_j):
    k = (N + np.asarray(two_j)) // 2
    return _log_binom(N, k) + np.log(two_j + 1.0) - np.log(k + 1.0)


def prob_j(params: SystemParams, two_j: int) -> float:
    """Probability p(j) = (2j+1) N_j / 2^N of finding total bath spin j.

    This is the weight that a maximally mixed bath assigns to the (2j+1)
    states of each j multiplet, summed over the N_j copies.
    """
    N = params.N
    _check_two_j(N, two_j)
    if N <= EXACT_BINOMIAL_MAX_N:
        return float(Fraction((two_j + 1) * multiplicity_j(N, two_j), 1 << N))
    return float(np.exp(np.log(two_j + 1.0) + _log_multiplicity_j(N, two_j) - N * _LOG2))


def _omega_plus(omega0: float, A: float, two_m) -> float:
    # Omega_+(m) = omega0 + 4A(m + 1/2) = omega0 + 2A(two_m + 1)
    return omega0 + 2.0 * A * (np.asarray(two_m, dtype=float) + 1.0)


def _omega_minus(omega0: float, A: float, two_m) -> float:
    # Omega_-(m) = -omega0 + 4A(-m + 1/2) = -(omega0 + 2A(two_m - 1));
    # written this way, Omega_-(m+1) == -Omega_+(m) holds bit for bit.
    return -(omega0 + 2.0 * A * (np.asarray(two_m, dtype=float) - 1.0))


def sector_frequencies(params: SystemParams, s: SectorM) -> tuple[float, float]:
    """Detuning frequencies (Omega_+(m), Omega_-(m)) of the sector m.

    Omega_+-(m) = +-omega0 + 4A(+-m + 1/2).
    """
    _check_two_m(params.N, s.two_m)
    return (
        float(_omega_plus(params.omega0, params.A, s.two_m)),
        float(_omega_minus(params.omega0, params.A, s.two_m)),
    )


def b_coeff(s: SectorJM, sign: int = +1) -> float:
    """Flip coefficient b(j, +-m) = j(j+1) - m(m +- 1); always >= 0 for valid sectors.

    ``sign=+1`` gives b(j, m) = j(j+1) - m(m+1); ``sign=-1`` gives
    b(j, -m) = j(j+1) - m(m-1).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    tj, tm = s.two_j, s.two_m
    # j(j+1) - m(m+sign) = [two_j(two_j+2) - two_m(two_m + 2*sign)] / 4, exact
    num = tj * (tj + 2) - tm * (tm + 2 * sign)
    return num / 4.0


def mu(params: SystemParams, s: SectorJM, branch: int = +1) -> float:
    """Rabi frequency mu_+-(j, m) = sqrt(Omega_+-^2/4 + 4 A^2 b(j, +-m)) >= 0."""
    _check_two_j(params.N, s.two_j)
    if branch == +1:
        om = _omega_plus(params.omega0, params.A, s.two_m)
    elif branch == -1:
        om = _omega_minus(params.omega0, params.A, s.two_m)
    else:
        raise ValueError("branch must be +1 or -1")
    b = b_coeff(s, branch)
    return float(np.sqrt(0.25 * om * om + 4.0 * params.A * params.A * b))


def alpha(params: SystemParams) -> float:
    """Dimensionless perturbation parameter alpha = 2 A N / omega0."""
    return 2.0 * params.A * params.N / params.omega0


def coupling_from_alpha(N: int, omega0: float, alpha_value: float) -> float:
    """Coupling constant A that realizes a given alpha = 2AN/omega0."""
    if N < 1 or not (omega0 > 0.0):
        raise ValueError("need N >= 1 and omega0 > 0")
    return alpha_value * omega0 / (2.0 * N)


# ---------------------------------------------------------------------------
# Array views over all sectors, in the fixed iteration order (ascending two_j,
# then ascending two_m) used for bit-reproducible summations.
# ---------------------------------------------------------------------------


def two_m_values(N: int) -> np.ndarray:
    """All ``two_m`` labels for a bath of N spins, ascending."""
    return np.arange(-N, N + 1, 2, dtype=np.int64)


def _two_j_values(N: int) -> np.ndarray:
    """All ``two_j`` labels for a bath of N spins, ascending."""
    return np.arange(N % 2, N + 1, 2, dtype=np.int64)


def jm_sector_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(two_j, two_m) arrays over all (j, m) sectors, ascending two_j then two_m."""
    tjs = _two_j_values(N)
    two_j = np.repeat(tjs, tjs + 1)
    first = np.repeat(np.cumsum(tjs + 1) - (tjs + 1), tjs + 1)  # table index of m = -j
    return two_j, 2 * (np.arange(two_j.size) - first) - two_j


def weights_m_array(N: int) -> np.ndarray:
    """Weights N_m / 2^N aligned with ``two_m_values(N)``."""
    tm = two_m_values(N)
    if N <= EXACT_BINOMIAL_MAX_N:
        denom = 1 << N
        return np.array(
            [float(Fraction(math.comb(N, (N + t) // 2), denom)) for t in tm]
        )
    k = (N + tm) // 2
    return np.exp(_log_binom(float(N), k.astype(float)) - N * _LOG2)


def prob_j_array(N: int) -> np.ndarray:
    """p(j) for two_j = N%2, N%2+2, ..., N (ascending)."""
    tjs = _two_j_values(N)
    if N <= EXACT_BINOMIAL_MAX_N:
        denom = 1 << N
        return np.array(
            [
                float(Fraction((int(t) + 1) * multiplicity_j(N, int(t)), denom))
                for t in tjs
            ]
        )
    return np.exp(
        np.log(tjs + 1.0) + _log_multiplicity_j(float(N), tjs) - N * _LOG2
    )


def weights_jm_array(N: int) -> np.ndarray:
    """Weights N_j / 2^N = p(j)/(2j+1) aligned with ``jm_sector_table(N)``."""
    tjs = _two_j_values(N)
    if N <= EXACT_BINOMIAL_MAX_N:
        denom = 1 << N
        w = np.array([float(Fraction(multiplicity_j(N, int(tj)), denom)) for tj in tjs])
    else:
        w = np.exp(_log_multiplicity_j(float(N), tjs) - N * _LOG2)
    return np.repeat(w, tjs + 1)


@dataclass(frozen=True)
class SectorFamily:
    """The ``m`` or ``jm`` sector table, one aligned array per field.

    Coherence kernel b_p e^{i om_p tau} + b_m e^{-i om_m tau}; the pair
    P^m_+ + P^{m+1}_- = c is conserved while P^m_+ relaxes to ``steady`` with
    the kernel pair_coef cos(om_p tau); y0 = P^m_+(0) - steady; ``lower`` is
    the index of m-1 in the same chain (-1 at its edge), ``c_prev`` its c.
    m: w = N_m/2^N, b_p/b_m = 4A^2 (N/2 -+ m), pair_coef = 8A^2 (N+1),
    steady = (N/2+m+1) c/(N+1).  jm: w = N_j/2^N, b_p/b_m = 4A^2 b(j, +-m),
    pair_coef = 16A^2 b(j,m), steady = c/2.
    """

    family: str
    two_j: np.ndarray | None
    two_m: np.ndarray
    w: np.ndarray
    om_p: np.ndarray
    om_m: np.ndarray
    b_p: np.ndarray
    b_m: np.ndarray
    pair_coef: np.ndarray
    c: np.ndarray
    steady: np.ndarray
    y0: np.ndarray
    c_prev: np.ndarray
    lower: np.ndarray


def sector_family(params: SystemParams, family: str) -> SectorFamily:
    """The sector table of the ``m`` or ``jm`` family for ``params``."""
    N, A, p0 = params.N, params.A, params.initial_p_plus
    a2 = A * A
    if family == "m":
        two_j, two_m, w, top = None, two_m_values(N), weights_m_array(N), N
        b_p = 2.0 * a2 * (N - two_m)
        b_m = 2.0 * a2 * (N + two_m)
        pair_coef = np.full(two_m.shape, 8.0 * a2 * (N + 1.0))
    elif family == "jm":
        two_j, two_m = jm_sector_table(N)
        w, top = weights_jm_array(N), two_j
        b_p = a2 * (two_j * (two_j + 2) - two_m * (two_m + 2))
        b_m = a2 * (two_j * (two_j + 2) - two_m * (two_m - 2))
        pair_coef = 4.0 * b_p
    else:
        raise ValueError(f"unknown family {family!r}")
    # the chain of a sector runs over m at fixed j (jm) or over all m (m);
    # neighbours are adjacent in the table
    lower = np.where(two_m > -top, np.arange(two_m.size) - 1, -1)
    w_up = np.where(two_m < top, np.append(w[1:], 0.0), 0.0)
    w_low = np.where(lower >= 0, w[lower], 0.0)
    c = w * p0 + w_up * (1.0 - p0)
    steady = 0.5 * c if two_j is not None else ((N + two_m) // 2 + 1) * c / (N + 1.0)
    return SectorFamily(
        family=family, two_j=two_j, two_m=two_m, w=w,
        om_p=_omega_plus(params.omega0, A, two_m),
        om_m=_omega_minus(params.omega0, A, two_m),
        b_p=b_p, b_m=b_m, pair_coef=pair_coef, c=c, steady=steady,
        y0=w * p0 - steady, c_prev=w_low * p0 + w * (1.0 - p0), lower=lower,
    )

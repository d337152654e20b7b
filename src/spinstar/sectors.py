"""Model parameters and angular-momentum sector combinatorics.

A central spin-1/2 with level splitting ``omega0`` couples to ``N`` bath
spins with a uniform Heisenberg exchange constant ``A``.  The bath Hilbert
space decomposes into sectors labelled either by the eigenvalue ``m`` of the
collective bath operator J_3, or by the simultaneous eigenvalues ``(j, m)``
of J^2 and J_3.  Every route (the exact solution and the sector master
equations) reads one table per family, built by ``sector_family``: per sector
the weight ``N_m / 2^N`` or ``N_j / 2^N``, the detuning frequencies
``Omega_+(m)``, ``Omega_-(m)`` and the kernel coefficients: 4A^2 (N/2 -+ m)
for ``m``, and 4A^2 times the flip coefficients
``b(j, +-m) = j(j+1) - m(m +- 1)`` for ``jm``, from which exact.py forms the
Rabi frequencies ``mu_+-(j, m) = sqrt(Omega_+-^2/4 + 4A^2 b(j, +-m))``.  The
``jm`` family leaves out the j multiplets of a certified-negligible tail of
p(j) = (2j+1) N_j / 2^N (total weight <= 2^-60), which a maximally mixed bath
concentrates on j of order sqrt(N).

Half-integer quantum numbers are stored as doubled integers (``two_j``,
``two_m``) so that sector identities are exact and usable as keys.

All weights come from one routine.  Up to ``EXACT_BINOMIAL_MAX_N`` the counts
``N_m`` and ``N_j`` are exact integers from one binomial row ``C(N, 0..N)``
(``N_j`` as a difference of neighbouring entries) and every weight is the
correctly rounded quotient by 2^N.  Beyond that they are evaluated in log
space, from one table of log i! (``math.lgamma``), through the
cancellation-free product form ``N_j = C(N, N/2+j) (2j+1)/(N/2+j+1)``.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "SystemParams",
    "EXACT_BINOMIAL_MAX_N",
    "coupling_from_alpha",
    "two_m_values",
    "jm_sector_table",
    "weights_m_array",
    "weights_jm_array",
    "prob_j_array",
    "SectorFamily",
    "sector_family",
]

#: largest N for which the weights are exact counts divided by 2^N, correctly
#: rounded; the binomial row is cheap even with 1200-digit entries (about 10 ms
#: per table at N = 4096).  Beyond, log space costs 2.5 ms, 20-23 ms and 0.21-0.22 s
#: per table at N = 10^4, 10^5 and 10^6 (one lgamma per i <= N), where the row
#: takes seconds and grows as N^2, and loses 5-16 N eps of relative accuracy:
#: over every central +-3 sqrt(N) entry of the m table at most 4.7e-12 at N = 4097,
#: 7.5e-12 at 5000, 2.5e-11 at 10^4, 3.5e-10 at 10^5 and 2.7e-9 at 10^6
EXACT_BINOMIAL_MAX_N = 4096

_LOG2 = math.log(2.0)

#: rounding slack of the positivity test |coh|^2 <= p(1-p) on the initial state
_PSD_TOL = 1e-12

#: total probability sum p(j) of the j multiplets that ``sector_family`` may leave
#: out of the jm family.  Each sector term of every route is bounded by its weight
#: (|f - 1| <= 2 for a coherence factor |f| <= 1), so the cut moves any total by at
#: most 2 |initial_coh| _TAIL_WEIGHT and any population by at most _TAIL_WEIGHT.
#: No multiplet is dropped for N <= 66.
_TAIL_WEIGHT = 2.0**-60

#: relative slack of the cut test ``rest (1 + _TAIL_MARGIN) > _TAIL_WEIGHT`` on a
#: float tail sum ``rest``, so that a dropped tail never exceeds _TAIL_WEIGHT.  Its
#: terms (2j+1) N_j/2^N carry two roundings each, so the sum is accurate to
#: (N/2+2) 2^-53 relative (2.3e-13 at N = 4096), and the log-space weights to
#: 5-16 N eps (3.4e-10 on the kept ones at N = 10^5); both are far below
#: 2^-20 = 9.5e-7.  Up to EXACT_BINOMIAL_MAX_N no exact tail sum lies within
#: 9.2e-5 of _TAIL_WEIGHT, so the slack keeps the same multiplets as an exact
#: comparison.
_TAIL_MARGIN = 2.0**-20


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


def _weights(N: int, two_q, count: str) -> np.ndarray:
    """2^-N times the bath count ``count`` at each label ``two_q`` (an int sequence).

    ``count`` is ``"m"`` for N_m = C(N, k) at two_q = two_m, ``"j"`` for
    N_j = C(N, k) - C(N, k+1) and ``"p"`` for (2j+1) N_j at two_q = two_j, with
    k = (N + two_q)/2.  For N <= EXACT_BINOMIAL_MAX_N the counts are exact
    integers from one binomial row and int true division rounds each quotient
    correctly; beyond, log space.
    """
    two_q = np.asarray(two_q, dtype=np.int64)
    k = (N + two_q) // 2
    if N <= EXACT_BINOMIAL_MAX_N:
        row = [1]
        for i in range(N):  # C(N, i+1) = C(N, i) (N-i)/(i+1)
            row.append(row[-1] * (N - i) // (i + 1))
        row.append(0)  # C(N, N+1), read by the top multiplet j = N/2
        denom = 1 << N
        out = []
        for t, i in zip(two_q.tolist(), k.tolist()):
            n = row[i] if count == "m" else row[i] - row[i + 1]
            out.append((n * (t + 1) if count == "p" else n) / denom)
        return np.array(out, dtype=float)
    lg = np.fromiter(map(math.lgamma, range(1, N + 2)), float, N + 1)  # log i!
    log_n = lg[N] - lg[k] - lg[N - k]
    if count != "m":  # N_j = C(N, k)(2j+1)/(k+1); this operation order fixes the bits
        log_n = log_n + np.log(two_q + 1.0) - np.log(k + 1.0)
    if count == "p":
        log_n = np.log(two_q + 1.0) + log_n
    return np.exp(log_n - N * _LOG2)


def _omega_plus(omega0: float, A: float, two_m) -> float:
    # Omega_+(m) = omega0 + 4A(m + 1/2) = omega0 + 2A(two_m + 1)
    return omega0 + 2.0 * A * (np.asarray(two_m, dtype=float) + 1.0)


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


def _expand_multiplets(tjs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(two_j, two_m) over every sector of the multiplets ``tjs``, ascending two_m in each."""
    two_j = np.repeat(tjs, tjs + 1)
    first = np.repeat(np.cumsum(tjs + 1) - (tjs + 1), tjs + 1)  # table index of m = -j
    return two_j, 2 * (np.arange(two_j.size) - first) - two_j


def jm_sector_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(two_j, two_m) arrays over all (j, m) sectors, ascending two_j then two_m."""
    return _expand_multiplets(_two_j_values(N))


def weights_m_array(N: int) -> np.ndarray:
    """Weights N_m / 2^N aligned with ``two_m_values(N)``."""
    return _weights(N, two_m_values(N), "m")


def prob_j_array(N: int) -> np.ndarray:
    """p(j) for two_j = N%2, N%2+2, ..., N (ascending)."""
    return _weights(N, _two_j_values(N), "p")


def _multiplet_weights(N: int, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """(two_j, N_j / 2^N) of the shortest ascending prefix of the j multiplets
    whose dropped rest has total probability sum p(j) <= ``tail`` (0: keep all).

    The cut compares float tail sums with the relative slack _TAIL_MARGIN, so
    the dropped rest is certified; it may keep one multiplet more than an
    exact comparison only if a tail sum lies within that slack of ``tail``.
    """
    tjs = _two_j_values(N)
    w = _weights(N, tjs, "j")
    keep = tjs.size
    if tail > 0.0:  # rest[k] = sum_{i >= k} p(j_i), non-increasing in k
        rest = np.cumsum(((tjs + 1) * w)[::-1])[::-1]
        keep = max(1, int(np.count_nonzero(rest * (1.0 + _TAIL_MARGIN) > tail)))
    return tjs[:keep], w[:keep]


def weights_jm_array(N: int) -> np.ndarray:
    """Weights N_j / 2^N = p(j)/(2j+1) aligned with ``jm_sector_table(N)``."""
    tjs, w = _multiplet_weights(N, 0.0)
    return np.repeat(w, tjs + 1)


@dataclass(frozen=True)
class SectorFamily:
    """The ``m`` or ``jm`` sector table, one aligned array per field.

    Coherence kernel b_p e^{i om_p tau} + b_m e^{-i om_m tau}; the pair
    P^m_+ + P^{m+1}_- = c is conserved while P^m_+ relaxes to ``steady`` with
    the kernel pair_coef cos(om_p tau); y0 = P^m_+(0) - steady; ``lower`` is
    the index of m-1 in the same chain (-1 at its edge), ``c_prev`` its c.
    m: w = N_m/2^N, b_p/b_m = 4A^2 (N/2 -+ m), pair_coef = 8A^2 (N+1),
    steady = (N/2+m+1) c/(N+1), exactly c at the top m = N/2, where y0 = 0.
    jm: w = N_j/2^N, b_p/b_m = 4A^2 b(j, +-m),
    pair_coef = 16A^2 b(j,m), steady = c/2.
    """

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

    def block(self, sl: slice) -> SectorFamily:
        """The sectors ``sl``, a run of whole chains, as a table of their own."""
        parts = {f.name: getattr(self, f.name)[sl] for f in fields(self)
                 if getattr(self, f.name) is not None}
        parts["lower"] = np.where(parts["lower"] >= 0, parts["lower"] - sl.start, -1)
        return replace(self, **parts)


def sector_family(params: SystemParams, family: str) -> SectorFamily:
    """The sector table of the ``m`` or ``jm`` family for ``params``.

    The ``m`` table is whole.  The ``jm`` table covers the shortest ascending
    prefix of the j multiplets whose dropped rest weighs at most
    ``_TAIL_WEIGHT`` = 2^-60 in total: all of them for N <= 66, 1892 of 2652
    sectors at N = 101, 21609 of 251001 at N = 1000.  Whole chains are kept,
    so every kept sector is bit for bit the row of the whole table, and only
    the kept multiplets are ever expanded into sectors.
    """
    N, A, p0 = params.N, params.A, params.initial_p_plus
    a2 = A * A
    if family == "m":
        two_j, two_m, w, top = None, two_m_values(N), weights_m_array(N), N
        b_p = 2.0 * a2 * (N - two_m)
        b_m = 2.0 * a2 * (N + two_m)
        pair_coef = np.full(two_m.shape, 8.0 * a2 * (N + 1.0))
    elif family == "jm":
        tjs, w_j = _multiplet_weights(N, _TAIL_WEIGHT)
        two_j, two_m = _expand_multiplets(tjs)
        w, top = np.repeat(w_j, tjs + 1), two_j
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
    # the m chain top two_m = N relaxes to steady = c = w p0, so y0 = 0 exactly: with the
    # zero pair_coef of the jm tops, that makes J_3^tot constant sector by sector
    steady = 0.5 * c if two_j is not None else np.where(
        two_m < N, ((N + two_m) // 2 + 1) * c / (N + 1.0), c)
    return SectorFamily(
        two_j=two_j, two_m=two_m, w=w,
        om_p=_omega_plus(params.omega0, A, two_m),
        # Omega_-(m) = -omega0 + 4A(-m + 1/2) = -Omega_+(m - 1): the |-> branch of
        # sector m is the |+> branch of m - 1, bit for bit by construction
        om_m=-_omega_plus(params.omega0, A, two_m - 2),
        b_p=b_p, b_m=b_m, pair_coef=pair_coef, c=c, steady=steady,
        y0=w * p0 - steady, c_prev=w_low * p0 + w * (1.0 - p0), lower=lower,
    )

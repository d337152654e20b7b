"""Second-order TCL and NZ master equations for the correlated projections.

Two projection families are supported:

* ``m``: project the bath onto the eigenspaces of J_3 (conserves J_3^tot).
* ``jm``: project onto the simultaneous (J^2, J_3) eigenspaces; its NZ2
  populations coincide with the exact dynamics.

Both are one construction on two sector partitions: sector coherences
decouple and sector populations close pairwise, d/dt [P^m_+ + P^{m+1}_-] = 0,
so every solver reduces to independent scalar problems per sector.  Their
coefficients are one table, ``sectors.sector_family(params, "m" | "jm")``:
labels ``two_j``/``two_m``, weights ``w``, detunings ``om_p``/``om_m``,
coherence rates ``b_p``/``b_m``, population ``pair_coef``, pair invariant
``c`` with its ``steady`` value and ``y0``, and ``c_prev``/``lower`` to
rebuild P_- from P_+.  Both methods, and the exact sums, take one route,
trajectory._sector_sums, blind to the method and the family: per (sector
block, time chunk) tile of trajectory._tiles a method's fill writes the
sector factors f and g, and the loop sums the totals and the sector arrays,
so that memory does not grow with sectors x times.  The
time chunks run on up to two threads, one per allowed CPU (trajectory._sweep),
in one shared memory budget, and no bit depends on the thread count:

* ``_tcl2_fill``: closed forms exp(-Lambda), behind ``tcl2_coherence_m``,
  ``tcl2_population_m`` and ``tcl2_jm``.  Every exponent is read from one
  table of g(Omega, t) on the detunings Omega_+(m) of the table, plus the
  one below its lowest m: the |-> branch of sector m is the |+> branch of
  m-1, Omega_-(m) = -Omega_+(m-1);
* ``_nz2_fill``: one scalar Volterra equation per sector, behind
  ``nz2_coherence_m``, ``nz2_population_m`` and ``nz2_jm``.
  Shifting to the steady value removes the constant forcing of the pairwise
  closure and keeps trace and J_3^tot conservation exact by construction.
  Every NZ2 kernel has amplitudes >= 0 and rates +-i Omega, so with
  ``opts=None`` the Volterra engine solves them exactly by its spectral
  route, tile by tile; an explicit ``SolveOptions`` selects the RK4
  (``aux_ode``) or the ``quadrature`` verifier route, whose whole-grid
  solution the tiles slice.

Where trajectory._uniform_step finds a uniform grid, each fill also gives,
per part it can, the exponential-sum terms of the total.  On the spectral
route each NZ2 sector solution is a sum of 3 exponentials, x_s(t) = sum_k
|V_sk|^2 e^{-i lambda_sk t}, so both NZ2 totals are exponential sums.  The TCL2
coherence is one too: each factor exp(-b g(W, t)) of a sector is a Poisson
series in e^{iWt}, so f_s is a double series in e^{i Omega_+(m) t} and
e^{i Omega_+(m-1) t}, cut where the weighted Poisson tails of all sectors
add up to at most sectors._TAIL_WEIGHT (``_tcl2_series``).  So are the TCL2
populations: a sector's exp(-c (1 - cos W t)) is the Bessel generating
function, a series in e^{ikWt} cut the same way
(``_tcl2_population_series``).  Neither part has terms where a sector sits at
a resonance Omega_+ = 0 with b > 0 or pair_coef > 0 (or so near one that its
degree passes _TCL2_MAX_DEGREE).

Every public solver and the CLI go through ``_solve``, blind to the method.  A
part with terms takes the baby-step/giant-step GEMM of trajectory._exp_sum, as
the exact sums do, and the tiles run only for what no terms give: the sector
arrays and the parts without terms.  J_3^tot is conserved by construction, so
nothing computes its series; ``j3tot_expectation`` reduces a bundle to it.

``tcl2_*_via_ode`` integrate the time-local TCL2 equations of either table
with RK4, as an independent check of the closed forms.  Public trajectories
are in the rotating frame of the central spin: sector coherences pick up the
phase exp(-4 i A m t), populations are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sectors import (_TAIL_MARGIN, _TAIL_WEIGHT, SectorFamily, SystemParams, _omega_plus,
                      sector_family)
from .trajectory import (Trajectory, _add_rows, _sector_slices, _sector_sums, _tile, _trajectory,
                         _validate_times)
from .volterra import SolveOptions, _unit_solutions, integrate_linear_ode

__all__ = [
    "SectorBundle",
    "tcl2_coherence_m",
    "tcl2_population_m",
    "nz2_coherence_m",
    "nz2_population_m",
    "tcl2_jm",
    "nz2_jm",
    "standard_projection_population",
    "j3tot_expectation",
]


@dataclass
class SectorBundle:
    """Sector-resolved solution: arrays of shape (n_sectors, n_times).

    The sectors are those of ``sector_family``: the whole ``m`` table, and
    for ``jm`` the kept multiplets only, which at N >= 67 leave out a tail of
    total weight <= 2^-60 (see ``sectors._TAIL_WEIGHT``).
    """

    two_m: np.ndarray
    two_j: np.ndarray | None
    p_plus: np.ndarray | None
    p_minus: np.ndarray | None
    coh: np.ndarray | None


# (x - sin x)/x^2 = x sum_k (-1)^k x^(2k)/(2k+3)!; eight terms reach rounding for |x| < 1
_SIN_SERIES = (1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800,
               1 / 1307674368000, -1 / 355687428096000)


def _g_table(om, t, imag: bool):
    """(2 Re g/t^2, Im g/t^2 or None unless ``imag``) of g(Omega, t) on a (detunings,
    times) grid.

    g(Omega, t) = int_0^t (t - u) e^{i Omega u} du = (1 - e^{i Omega t})/Omega^2 + i t/Omega.
    With x = Omega t, 2 Re g/t^2 = (sin(x/2)/(x/2))^2 has no cancellation and
    Im g/t^2 = (x - sin x)/x^2 takes its Taylor series where |x| < 1, element
    by element, so both are accurate at and near Omega = 0.
    """
    x = np.multiply.outer(om, t)
    re = np.multiply(x, 0.5)
    np.divide(np.sin(re), re, out=re, where=x != 0.0)
    re[x == 0.0] = 1.0
    re *= re
    if not imag:  # the populations read Re g alone
        return re, None
    small = np.abs(x) < 1.0
    im = np.subtract(x, np.sin(x))
    np.divide(im, x * x, out=im, where=~small)
    xs = x[small]
    im[small] = xs * np.polyval(_SIN_SERIES[::-1], xs * xs)
    return re, im


def _frame_phase(params: SystemParams, two_m, t):
    # e^{-4 i A m t} = e^{-2 i A two_m t}
    return np.exp(-2j * params.A * np.multiply.outer(np.asarray(two_m, float), t))


# ---------------------------------------------------------------------------
# the TCL2 and NZ2 fills of trajectory._tiles
# ---------------------------------------------------------------------------


def _tcl2_fill(params: SystemParams, fam: SectorFamily, t, populations: bool,
               coherence: bool, opts, dt):
    """(fill, coherence terms, population terms) of TCL2; ``opts`` does not apply.  The
    terms are those of ``_tcl2_series`` and ``_tcl2_population_series``, None unless
    asked on a uniform grid (``dt`` not None) where the family has the series.

    Closed forms f = exp[-2iA two_m t - B_+ g(Omega_+, t) - B_- g(-Omega_-, t)] and
    g = exp(-pair_coef Re g(Omega_+, t)), with g(Omega, t) read from one table per chunk
    of the Omega_+(m) from two_m = min(two_m) - 2 to max(two_m): the row of a sector
    is Omega_+(m), the row before it Omega_+(m-1) = -Omega_-(m).
    """
    lo = int(fam.two_m.min())
    om = _omega_plus(params.omega0, params.A, np.arange(lo - 2, int(fam.two_m.max()) + 1, 2))

    def chunk(sl, with_coh):
        t2, (re, im) = t[sl] * t[sl], _g_table(om, t[sl], with_coh)

        def tile(sub, blk, f, gm1, g, scratch):
            k = (sub.two_m - lo) // 2 + 1
            if f is not None:  # each term of Lambda as (g coef) t^2, B_+ first
                term = _tile(scratch.view(float), *f.shape)
                f.fill(0.0)
                for r, b in ((k, sub.b_p), (k - 1, sub.b_m)):
                    for part, table, coef in ((f.real, re, 0.5 * b), (f.imag, im, b)):
                        # mode="clip" fills out= directly; the rows are in range
                        np.take(table, r, axis=0, out=term, mode="clip")
                        term *= coef[:, None]
                        term *= t2
                        part += term
                f.imag += np.multiply.outer(2.0 * params.A * sub.two_m, t[sl], out=term)
                np.negative(f, out=f)
                np.exp(f, out=f)
            if gm1 is not None:  # y0 (g - 1)
                lam = np.take(re, k, axis=0, out=gm1, mode="clip")
                lam *= (0.5 * sub.pair_coef)[:, None]
                lam *= t2
                np.negative(lam, out=lam)
                if g is not None:
                    np.exp(lam, out=g)
                np.expm1(lam, out=lam)
                lam *= sub.y0[:, None]

        return tile

    on_grid = dt is not None
    return (chunk, _tcl2_series(params, fam) if coherence and on_grid else None,
            _tcl2_population_series(fam) if populations and on_grid else None)


#: highest total degree n1 + n2 of a sector's TCL2 coherence series: near a
#: resonance Omega_+ = 0 its Poisson mean b/Omega^2 grows without bound, and a
#: family with a sector past this degree keeps the tiles
_TCL2_MAX_DEGREE = 32

#: n! up to the highest degree, for the Poisson terms of both TCL2 series
_FACTORIAL = np.array([math.factorial(n) for n in range(_TCL2_MAX_DEGREE + 1)], float)

#: the pairs (n1, n2) of a TCL2 coherence series up to the highest degree, by total
#: degree n1 + n2, then by n1: a sector of degree d keeps the first (d + 1)(d + 2)/2
_PAIRS_N1, _PAIRS_N2 = np.array([(i, d - i) for d in range(_TCL2_MAX_DEGREE + 1)
                                 for i in range(d + 1)]).T


def _ratio(num, den):
    """num/den elementwise, 0 where num is 0 (den may then be 0 too)."""
    return np.divide(num, den, out=np.zeros(num.shape), where=num != 0.0)


def _poisson_degrees(lam, budget):
    """The least n <= _TCL2_MAX_DEGREE per element whose Poisson(lam) tail P(X > n) is
    at most ``budget`` (per element), or None where an element needs more.

    The tail is certified by p_{n+1} / (1 - lam/(n+2)), an upper bound for
    lam < n + 2, with the relative slack _TAIL_MARGIN of the jm tail cut.  A
    budget of at least 1 takes degree 0, since no tail exceeds 1.
    """
    degree = np.where(budget >= 1.0, 0, -1)
    p = np.exp(-lam)  # p_0
    for n in range(_TCL2_MAX_DEGREE + 1):
        p = p * lam / (n + 1)  # p_{n+1}
        with np.errstate(invalid="ignore"):  # inf * 0 where lam = n + 2: not certified
            bound_ok = p * (1.0 + _TAIL_MARGIN) <= budget * (1.0 - lam / (n + 2))
        degree[(degree < 0) & (lam < n + 2) & bound_ok] = n
        if np.all(degree >= 0):
            return degree
    return None


def _tail_degrees(lam, weight):
    """``_poisson_degrees`` of the S sectors' Poisson means for tails of _TAIL_WEIGHT /
    (S |weight|) (inf where the weight is 0), or None where some mean is not finite."""
    if not np.all(np.isfinite(lam)):
        return None
    weight = np.abs(weight)
    budget = np.divide(_TAIL_WEIGHT / weight.size, weight, out=np.full(weight.shape, np.inf),
                       where=weight > 0.0)
    return _poisson_degrees(lam, budget)


def _tcl2_series(params: SystemParams, fam: SectorFamily):
    """The (amp, nu) terms of E(t) = sum_s w_s f_s(t) for the TCL2 coherence, or None
    where the family has no series.

    With g(W, t) = (1 - e^{iWt})/W^2 + i t/W and a = b/W^2, exp(-b g(W, t)) =
    e^{-a} e^{-i (b/W) t} sum_n a^n e^{inWt}/n!.  A sector's f_s has two such
    factors, W1 = Omega_+(m) with b_p and W2 = Omega_+(m-1) = -Omega_-(m)
    with b_m, so it is a sum of exponentials of amplitude
    w e^{-a1-a2} a1^n1 a2^n2/(n1! n2!) and frequency
    -2A two_m - b_p/W1 - b_m/W2 + n1 W1 + n2 W2 (b/W and a taken as 0 where
    b = 0).  The family shares one tail budget, _TAIL_WEIGHT, in equal parts:
    each of its S sectors keeps the total degrees n1 + n2 <= n_s that
    ``_tail_degrees(a1 + a2, w)`` gives for a tail of _TAIL_WEIGHT / (S w_s), so it drops amplitudes
    of sum at most _TAIL_WEIGHT / S (none where w_s = 0, at degree 0), and the
    family at most _TAIL_WEIGHT, in E(t) and E(0): the coherence moves by at
    most 2 |coh0| _TAIL_WEIGHT, the bound of the jm tail cut.  A light sector
    so keeps fewer terms than a heavy one.  The terms come in the slices of
    trajectory._sector_slices, in a fixed order.

    There is no series where some sector has W = 0 with b > 0 (there g = t^2/2
    has none) or a degree above _TCL2_MAX_DEGREE.
    """
    w1, w2 = fam.om_p, -fam.om_m
    with np.errstate(divide="ignore", over="ignore"):  # inf where W^2 = 0 < b: no series
        a1, a2 = _ratio(fam.b_p, w1 * w1), _ratio(fam.b_m, w2 * w2)
    lam = a1 + a2
    degree = _tail_degrees(lam, fam.w)
    if degree is None:
        return None
    counts = (degree + 1) * (degree + 2) // 2
    base = -2.0 * params.A * fam.two_m - _ratio(fam.b_p, w1) - _ratio(fam.b_m, w2)
    scale = fam.w * np.exp(-lam)

    def terms(rows, k):  # the first counts[row] pairs (n1, n2) of each sector
        i, j = _PAIRS_N1[k], _PAIRS_N2[k]
        amp = scale[rows] * (a1[rows] ** i / _FACTORIAL[i]) * (a2[rows] ** j / _FACTORIAL[j])
        return amp, base[rows] + i * w1[rows] + j * w2[rows]

    return _sector_slices(counts, terms)


def _tcl2_population_series(fam: SectorFamily):
    """The (amp, nu) terms of E(t) = sum_s y0_s g_s(t) for the TCL2 populations, whose
    total is P_+(0) + Re(E(t) - E(0)), or None where the family has no series.

    A sector's g = exp(-c (1 - cos W t)), with W = Omega_+(m) and c = pair_coef/W^2,
    is e^{-c} sum_{n1, n2} (c/2)^{n1+n2} e^{i (n1 - n2) W t}/(n1! n2!), the Bessel
    generating function (Abramowitz & Stegun 9.6.34).  Its total degree n1 + n2 is
    Poisson(c), cut as in ``_tcl2_series`` at the degree d_s that
    ``_tail_degrees(c, y0)`` gives for a tail of _TAIL_WEIGHT / (S |y0_s|), so the family drops
    amplitudes of sum at most _TAIL_WEIGHT and P_+ moves by at most 2 _TAIL_WEIGHT.
    Only Re E is read, so the pairs of equal k = |n1 - n2| fold into one real
    amplitude at frequency k W, y0 e^{-c} sum_{n1+n2 <= d_s, |n1-n2| = k}
    (c/2)^{n1+n2}/(n1! n2!); the constant k = 0 cancels in E(t) - E(0), so a
    sector has the d_s terms k = 1..d_s, in the slices of trajectory._sector_slices.

    There is no series where some sector has W = 0 with pair_coef > 0 (there
    g = exp(-pair_coef t^2/2) has none) or a degree above _TCL2_MAX_DEGREE.
    """
    with np.errstate(divide="ignore", over="ignore"):  # inf where W^2 = 0 < pair_coef
        c = _ratio(fam.pair_coef, fam.om_p * fam.om_p)
    degree = _tail_degrees(c, fam.y0)
    if degree is None:
        return None
    half, scale = 0.5 * c, 2.0 * fam.y0 * np.exp(-c)  # each k > 0 folds k and -k

    def terms(rows, k):
        k = k + 1
        n, amp = k.copy(), np.zeros(k.size)
        for j in range(_TCL2_MAX_DEGREE // 2):  # n = n1 + n2 = k + 2j, n2 = j
            kept = n <= degree[rows]
            if not kept.any():
                break
            amp[kept] += half[rows[kept]] ** n[kept] / (_FACTORIAL[k[kept] + j] * _FACTORIAL[j])
            n += 2
        return scale[rows] * amp, k * fam.om_p[rows]

    return _sector_slices(degree, terms)


def _nz2_fill(params: SystemParams, fam: SectorFamily, t, populations: bool,
              coherence: bool, opts, dt):
    """(fill, coherence terms, population terms) of the NZ2 sector equations.

    Scalar Volterra solutions x_s(t), x_s(0) = 1, per sector: f = x e^{-2iA two_m t} for
    the kernel B_+ e^{i Omega_+ tau} + B_- e^{-i Omega_- tau}, and g = x for the kernel
    pair_coef cos(Omega_+ tau), split into e^{+-i Omega_+ tau}/2.  On the spectral
    route x_s = sum_k |V_sk|^2 e^{-i lambda_sk t}, so where the grid has the step ``dt``
    each asked part is an exponential sum of 3 terms per sector: amplitudes
    w_s |V_sk|^2 and frequencies -(lambda_sk + 2A two_m_s) for the coherence, and
    y0_s |V_sk|^2 and -lambda_sk for P_+.  The terms are None off that route.
    """
    half = 0.5 * fam.pair_coef
    coh_x, coh_spec = _unit_solutions(np.stack([fam.b_p, fam.b_m], axis=1), np.stack(
        [1j * fam.om_p, -1j * fam.om_m], axis=1), t, opts) if coherence else (None, None)
    pop_x, pop_spec = _unit_solutions(np.stack([half, half], axis=1), np.stack(
        [1j * fam.om_p, -1j * fam.om_p], axis=1), t, opts) if populations else (None, None)

    def chunk(sl, with_coh):
        def tile(sub, blk, f, gm1, g, scratch):
            if f is not None:
                coh_x(blk, sl, f, _tile(scratch, *f.shape))
                f += 1.0
                f *= _frame_phase(params, sub.two_m, t[sl])
            if gm1 is not None:  # y0 (g - 1)
                pop_x(blk, sl, gm1, _tile(scratch, *gm1.shape))
                if g is not None:
                    np.add(gm1, 1.0, out=g)
                gm1 *= sub.y0[:, None]

        return tile

    coh_terms = pop_terms = None
    if coh_spec is not None and dt is not None:
        lam, wts = coh_spec
        coh_terms = [((fam.w[:, None] * wts).ravel(),
                      (-(lam + (2.0 * params.A * fam.two_m)[:, None])).ravel())]
    if pop_spec is not None and dt is not None:
        lam, wts = pop_spec
        pop_terms = [((fam.y0[:, None] * wts).ravel(), (-lam).ravel())]
    return chunk, coh_terms, pop_terms


def _sector_p_minus(fam: SectorFamily, p_plus: np.ndarray) -> np.ndarray:
    """P^m_-(t) = C_{m-1} - P^{m-1}_+(t) along each chain, P_+ = 0 below its edge."""
    below = p_plus[fam.lower]  # lower = -1 at a chain's edge picks the last row, zeroed next
    below[fam.lower < 0] = 0.0
    return np.subtract(fam.c_prev[:, None], below, out=below)


def _solve(
    params: SystemParams, times, method: str, family: str, populations: bool = True,
    coherence: bool = True, opts: SolveOptions | None = None, sectors: bool = False,
):
    """(Trajectory, SectorBundle or None) of TCL2 or NZ2.

    The one entry of the public solvers and the CLI: ``method`` is "tcl2" or "nz2",
    ``family`` "m" or "jm".  ``sectors`` fills the SectorBundle, the only input of
    ``j3tot_expectation``.  trajectory._sector_sums takes each part from its
    exponential sum or its tiles; the totals coh0 (1 + S) and P_+(0) + S are exact at t = 0.
    """
    t, fam = _validate_times(times), sector_family(params, family)
    fill = {"tcl2": _tcl2_fill, "nz2": _nz2_fill}[method]
    s_coh, s_pop, sector_coh, sector_p = _sector_sums(params, fam, t, populations, coherence,
                                                      sectors, fill, opts)
    coh = None if s_coh is None else complex(params.initial_coh) * (1.0 + s_coh)
    p_plus = None if s_pop is None else params.initial_p_plus + s_pop
    bundle = SectorBundle(
        two_m=fam.two_m, two_j=fam.two_j, p_plus=sector_p, coh=sector_coh,
        p_minus=None if sector_p is None else _sector_p_minus(fam, sector_p),
    ) if sectors else None
    return _trajectory(params, t, method, family, p_plus, coh), bundle


def _public(params, times, method, family, populations, coherence, opts, return_sectors):
    traj, bundle = _solve(params, times, method, family, populations, coherence, opts,
                          return_sectors)
    return (traj, bundle) if return_sectors else traj


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------


def tcl2_coherence_m(params: SystemParams, times, return_sectors: bool = False):
    """TCL2 coherence under the J_3 projection (closed form).

    rho_{+-}(t) = rho_{+-}(0) sum_m (N_m/2^N) exp[-4iAmt - Lambda^coh_m(t)].
    """
    return _public(params, times, "tcl2", "m", False, True, None, return_sectors)


def tcl2_population_m(params: SystemParams, times, return_sectors: bool = False):
    """TCL2 populations under the J_3 projection (closed form).

    Each sector relaxes as d_m + (P^m_+(0) - d_m) exp(-Lambda^pop_m) with
    Lambda^pop_m = 8A^2(N+1)(1 - cos Omega_+(m) t)/Omega_+^2(m).
    """
    return _public(params, times, "tcl2", "m", True, False, None, return_sectors)


def nz2_coherence_m(
    params: SystemParams, times, opts: SolveOptions | None = None,
    return_sectors: bool = False,
):
    """NZ2 coherence under the J_3 projection (per-sector Volterra solve)."""
    return _public(params, times, "nz2", "m", False, True, opts, return_sectors)


def nz2_population_m(
    params: SystemParams, times, opts: SolveOptions | None = None,
    return_sectors: bool = False,
):
    """NZ2 populations under the J_3 projection.

    After eliminating P^{m+1}_- through the pairwise conservation law, each
    sector obeys a scalar Volterra equation with the cosine kernel
    8A^2(N+1) cos(Omega_+(m) tau) around its steady value.
    """
    return _public(params, times, "nz2", "m", True, False, opts, return_sectors)


def tcl2_jm(params: SystemParams, times, return_sectors: bool = False):
    """TCL2 populations and coherence under the full (J^2, J_3) projection.

    Same closed forms as the m-projection with the replacement
    B_+- -> 4A^2 b(j, +-m) and pair weight N+1 -> 2 b(j, m); the populations
    relax toward C_{jm}/2 with
    Lambda^pop_{jm} = 16A^2 b(j,m) (1 - cos Omega_+(m) t)/Omega_+^2(m).
    """
    return _public(params, times, "tcl2", "jm", True, True, None, return_sectors)


def nz2_jm(
    params: SystemParams, times, opts: SolveOptions | None = None,
    return_sectors: bool = False,
):
    """NZ2 populations and coherence under the full (J^2, J_3) projection.

    The population route reproduces the exact dynamics, to rounding on the
    default spectral route: each sector solves a scalar Volterra equation
    with the cosine kernel 16 A^2 b(j,m) cos(Omega_+(m) tau) around the
    steady value C_{jm}/2.
    """
    return _public(params, times, "nz2", "jm", True, True, opts, return_sectors)


# ---------------------------------------------------------------------------
# standard product projection, diagnostics
# ---------------------------------------------------------------------------


def _check_standard_start(initial_p_plus: float) -> None:
    """The standard projection's closed form holds for P_+(0) = 1 only."""
    if initial_p_plus != 1.0:
        raise ValueError("standard_projection_population requires initial_p_plus = 1")


def standard_projection_population(params: SystemParams, times) -> Trajectory:
    """TCL2 populations under the standard product projection (closed form).

    P_+(t) = [1 + exp(-(8A^2 N/omega0^2)(1 - cos omega0 t))]/2; only the
    initial condition P_+(0) = 1 is supported (as printed).
    """
    _check_standard_start(params.initial_p_plus)
    t = _validate_times(times)
    rate = 8.0 * params.A * params.A * params.N / params.omega0**2
    p_plus = 0.5 * (1.0 + np.exp(-rate * (1.0 - np.cos(params.omega0 * t))))
    return _trajectory(params, t, "standard", "product", p_plus, None)


def j3tot_expectation(bundle: SectorBundle) -> np.ndarray:
    """tr{J_3^tot P rho(t)} = sum_m [(m + 1/2) P^m_+ + (m - 1/2) P^m_-].

    The sector sum runs over a C-ordered array, so its rounding does not
    depend on the memory layout of the bundle.
    """
    if bundle.p_plus is None or bundle.p_minus is None:
        raise ValueError("sector populations required")
    m = 0.5 * bundle.two_m.astype(float)
    terms = np.multiply((m + 0.5)[:, None], bundle.p_plus, out=np.empty(bundle.p_plus.shape))
    terms += (m - 0.5)[:, None] * bundle.p_minus
    return _add_rows(terms, None)


# ---------------------------------------------------------------------------
# direct integration of the time-local TCL equations (consistency oracles)
# ---------------------------------------------------------------------------


def _integrated_kernel(fam: SectorFamily, t):
    """int_0^t [B_+ e^{i Omega_+ s} + B_- e^{-i Omega_- s}] ds per sector."""
    out = 0.0
    for b, om in ((fam.b_p, fam.om_p), (fam.b_m, -fam.om_m)):
        h = 0.5 * om * t  # int_0^t e^{i om s} ds = t e^{i h} sin(h)/h
        out = out + b * t * np.exp(1j * h) * np.sinc(h / np.pi)
    return out


def tcl2_coherence_via_ode(
    params: SystemParams, times, family: str = "m", opts: SolveOptions | None = None
) -> Trajectory:
    """Integrate the time-local TCL2 coherence equations directly (no closed form).

    Cross-validates the Lambda^coh exponents, including the jm variant whose
    closed form is derived rather than printed.
    """
    t, fam = _validate_times(times), sector_family(params, family)
    x0 = fam.w.astype(complex) * complex(params.initial_coh)

    def rhs(tt, x):
        return -_integrated_kernel(fam, tt) * x

    xs = integrate_linear_ode(x0, rhs, t, opts or SolveOptions(step=0.01))
    coh0 = complex(params.initial_coh)
    sector_coh = xs.T * _frame_phase(params, fam.two_m, t)
    coh = coh0 + np.add.reduce(sector_coh - (fam.w * coh0)[:, None], axis=0)
    return _trajectory(params, t, "tcl2_ode", family, None, coh)


def tcl2_population_via_ode(
    params: SystemParams, times, family: str = "m", opts: SolveOptions | None = None
) -> Trajectory:
    """Integrate the time-local TCL2 population equations directly."""
    t, fam = _validate_times(times), sector_family(params, family)

    def rhs(tt, y):  # y' = -pair_coef sin(Omega_+ t)/Omega_+ y, y = P^s_+ - steady
        return -fam.pair_coef * tt * np.sinc(fam.om_p * tt / np.pi) * y

    ys = integrate_linear_ode(fam.y0.astype(complex), rhs, t, opts or SolveOptions(step=0.01))
    p_plus = params.initial_p_plus + np.add.reduce(ys.real.T - fam.y0[:, None], axis=0)
    return _trajectory(params, t, "tcl2_ode", family, p_plus, None)

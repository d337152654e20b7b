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
rebuild P_- from P_+.  Four kernels read it and never branch on the family:

* ``_tcl2_coherence``/``_tcl2_population``: closed forms exp(-Lambda), behind
  ``tcl2_coherence_m``, ``tcl2_population_m`` and ``tcl2_jm``, evaluated per
  time chunk so that memory does not grow with sectors x times;
* ``_nz2_coherence``/``_nz2_population``: one scalar Volterra equation per
  sector, behind ``nz2_coherence_m``, ``nz2_population_m`` and ``nz2_jm``.
  Shifting to the steady value removes the constant forcing of the pairwise
  closure and keeps trace and J_3^tot conservation exact by construction.
  Every NZ2 kernel has amplitudes >= 0 and rates +-i Omega, so with
  ``opts=None`` the Volterra engine solves them exactly by its spectral
  route; an explicit ``SolveOptions`` selects the RK4 (``aux_ode``) or the
  ``quadrature`` verifier route instead.

Every public solver and the CLI go through ``_solve``, which can also return
the J_3^tot series, reduced per time chunk next to the totals, without
sector-resolved arrays.

``tcl2_*_via_ode`` integrate the time-local TCL2 equations of either table
with RK4, as an independent check of the closed forms.  Public trajectories
are in the rotating frame of the central spin: sector coherences pick up the
phase exp(-4 i A m t), populations are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sectors import SectorFamily, SystemParams, sector_family
from .trajectory import Trajectory, _time_chunks, _validate_times
from .volterra import SolveOptions, solve_volterra_batch, integrate_linear_ode

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
    """Sector-resolved solution: arrays of shape (n_sectors, n_times)."""

    two_m: np.ndarray
    two_j: np.ndarray | None
    p_plus: np.ndarray | None
    p_minus: np.ndarray | None
    coh: np.ndarray | None


# (x - sin x)/x^2 = x sum_k (-1)^k x^(2k)/(2k+3)!; eight terms reach rounding for |x| < 1
_SIN_SERIES = (1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800,
               1 / 1307674368000, -1 / 355687428096000)


def _tcl2_exponent(terms, t, imag: bool) -> np.ndarray:
    """sum over (coef, Omega) in terms of coef g(Omega, t), one (sectors, times) array.

    g(Omega, t) = int_0^t (t - u) e^{i Omega u} du = (1 - e^{i Omega t})/Omega^2 + i t/Omega.
    With x = Omega t, Re g = (t^2/2) (sin(x/2)/(x/2))^2 has no cancellation and
    Im g = t^2 (x - sin x)/x^2 takes its Taylor series where |x| < 1, element
    by element, so both are accurate at and near Omega = 0.  With imag=False
    only Re g is summed, into a real array.
    """
    lam = np.zeros((terms[0][0].size, t.size), complex if imag else float)
    for coef, om in terms:
        x = np.multiply.outer(om, t)
        g = np.multiply(x, 0.5)
        np.divide(np.sin(g), g, out=g, where=x != 0.0)
        g[x == 0.0] = 1.0
        g *= g
        g *= (0.5 * coef)[:, None]
        g *= t * t
        lam.real += g
        if imag:
            small = np.abs(x) < 1.0
            np.subtract(x, np.sin(x), out=g)
            np.divide(g, x * x, out=g, where=~small)
            xs = x[small]
            g[small] = xs * np.polynomial.polynomial.polyval(xs * xs, _SIN_SERIES)
            g *= coef[:, None]
            g *= t * t
            lam.imag += g
    return lam


def _frame_phase(params: SystemParams, two_m, t):
    # e^{-4 i A m t} = e^{-2 i A two_m t}
    return np.exp(-2j * params.A * np.multiply.outer(np.asarray(two_m, float), t))


# ---------------------------------------------------------------------------
# family-generic kernels: each returns totals, then sector arrays or None
# ---------------------------------------------------------------------------
#
# The TCL2 kernels run per time chunk of trajectory._time_chunks, so their
# temporaries are (sectors, chunk) blocks.  Each time column is reduced over
# sectors in the same order as a whole (sectors, times) array would be, so
# chunking changes no bit of the totals, the sector arrays or J_3^tot.


def _tcl2_coherence(params: SystemParams, fam: SectorFamily, t, sectors: bool):
    """rho_{+-}(0) sum_s w_s exp[-2iA two_m t - B_+ g(Omega_+, t) - B_- g(-Omega_-, t)]."""
    terms = ((fam.b_p, fam.om_p), (fam.b_m, -fam.om_m))
    phase, coh0 = 2.0 * params.A * fam.two_m, complex(params.initial_coh)
    coh = np.empty(t.size, complex)
    sector_coh = np.empty((fam.w.size, t.size), complex) if sectors else None
    for sl in _time_chunks(t.size, 16 * fam.w.size):
        f = _tcl2_exponent(terms, t[sl], imag=True)
        f.imag += np.multiply.outer(phase, t[sl])
        np.negative(f, out=f)
        np.exp(f, out=f)
        if sectors:
            sector_coh[:, sl] = coh0 * fam.w[:, None] * f
        f -= 1.0
        f *= fam.w[:, None]
        coh[sl] = coh0 * (1.0 + np.add.reduce(f, axis=0))
    return coh, sector_coh


def _tcl2_population(params: SystemParams, fam: SectorFamily, t, sectors: bool, j3tot: bool):
    """steady + y0 exp(-pair_coef Re g(Omega_+, t)), Re g = (1 - cos Omega_+ t)/Omega_+^2."""
    p_plus, j3 = np.empty(t.size), (np.empty(t.size) if j3tot else None)
    sector_p = np.empty((fam.w.size, t.size)) if sectors else None
    for sl in _time_chunks(t.size, 16 * fam.w.size):
        lam = _tcl2_exponent(((fam.pair_coef, fam.om_p),), t[sl], imag=False)
        np.negative(lam, out=lam)
        if sectors or j3tot:
            sp = fam.steady[:, None] + fam.y0[:, None] * np.exp(lam)
            if sectors:
                sector_p[:, sl] = sp
            if j3tot:
                j3[sl] = _sector_j3tot(fam, sp)
        np.expm1(lam, out=lam)
        lam *= fam.y0[:, None]
        p_plus[sl] = params.initial_p_plus + np.add.reduce(lam, axis=0)
    return p_plus, sector_p, j3


def _coherence_totals(params: SystemParams, fam: SectorFamily, t, x):
    """Total and sector coherence from the interaction-picture sector solutions x."""
    coh0 = complex(params.initial_coh)
    sector_coh = x * _frame_phase(params, fam.two_m, t)
    return coh0 + np.add.reduce(sector_coh - (fam.w * coh0)[:, None], axis=0), sector_coh


def _nz2_coherence(params: SystemParams, fam: SectorFamily, t, sectors: bool, opts):
    """Per-sector Volterra solve with the kernel B_+ e^{i Omega_+ tau} + B_- e^{-i Omega_- tau}."""
    amps = np.stack([fam.b_p, fam.b_m], axis=1).astype(complex)
    rates = np.stack([1j * fam.om_p, -1j * fam.om_m], axis=1)
    x = solve_volterra_batch(fam.w * complex(params.initial_coh), amps, rates, t, opts=opts)
    coh, sector_coh = _coherence_totals(params, fam, t, x)
    return coh, (sector_coh if sectors else None)


def _nz2_population(params: SystemParams, fam: SectorFamily, t, sectors: bool, j3tot: bool,
                    opts):
    """Per-sector Volterra solve with the kernel pair_coef cos(Omega_+ tau) around steady."""
    half = 0.5 * fam.pair_coef  # cosine kernel split into e^{+-i Omega_+ tau}/2
    amps = np.stack([half, half], axis=1).astype(complex)
    rates = np.stack([1j * fam.om_p, -1j * fam.om_p], axis=1)
    y = solve_volterra_batch(fam.y0.astype(complex), amps, rates, t, opts=opts).real
    p_plus = params.initial_p_plus + np.add.reduce(y - fam.y0[:, None], axis=0)
    j3 = None
    if j3tot:  # per time chunk: no (sectors, times) array besides the solution
        j3 = np.empty(t.size)
        for sl in _time_chunks(t.size, 16 * fam.w.size):
            j3[sl] = _sector_j3tot(fam, fam.steady[:, None] + y[:, sl])
    return p_plus, (fam.steady[:, None] + y if sectors else None), j3


def _sector_p_minus(fam: SectorFamily, p_plus: np.ndarray) -> np.ndarray:
    """P^m_-(t) = C_{m-1} - P^{m-1}_+(t) along each chain, P_+ = 0 below its edge."""
    below, inner = np.zeros_like(p_plus), fam.lower >= 0
    below[inner] = p_plus[fam.lower[inner]]
    return fam.c_prev[:, None] - below


def _sector_j3tot(fam: SectorFamily, sector_p: np.ndarray) -> np.ndarray:
    """``j3tot_expectation`` of the sector populations P^s_+ on any slice of the times."""
    return j3tot_expectation(SectorBundle(
        two_m=fam.two_m, two_j=fam.two_j, p_plus=sector_p,
        p_minus=_sector_p_minus(fam, sector_p), coh=None,
    ))


def _trajectory(params, t, method: str, family: str, p_plus, coh) -> Trajectory:
    return Trajectory(
        times=t, p_plus=p_plus, p_minus=None if p_plus is None else 1.0 - p_plus,
        coh=coh, method=method, projection=family, params=params,
    )


def _solve(
    params: SystemParams, times, method: str, family: str, populations: bool = True,
    coherence: bool = True, opts: SolveOptions | None = None, sectors: bool = False,
    j3tot: bool = False,
):
    """(Trajectory, SectorBundle or None, J_3^tot series or None) of TCL2 or NZ2.

    The one route of the public solvers and the CLI: ``method`` is "tcl2" or
    "nz2", ``family`` "m" or "jm".  ``sectors`` fills the SectorBundle;
    ``j3tot`` (with populations) returns the series of
    ``j3tot_expectation(bundle)``, bit for bit, reduced per time chunk
    without building the bundle.
    """
    t, fam = _validate_times(times), sector_family(params, family)
    extra = () if method == "tcl2" else (opts,)
    pop_kernel, coh_kernel = {
        "tcl2": (_tcl2_population, _tcl2_coherence),
        "nz2": (_nz2_population, _nz2_coherence),
    }[method]
    p_plus = sector_p = j3 = coh = sector_coh = None
    if coherence:
        coh, sector_coh = coh_kernel(params, fam, t, sectors, *extra)
    if populations:
        p_plus, sector_p, j3 = pop_kernel(params, fam, t, sectors, j3tot, *extra)
    bundle = None
    if sectors:
        bundle = SectorBundle(
            two_m=fam.two_m, two_j=fam.two_j, p_plus=sector_p,
            p_minus=None if sector_p is None else _sector_p_minus(fam, sector_p),
            coh=sector_coh,
        )
    return _trajectory(params, t, method, family, p_plus, coh), bundle, j3


def _public(params, times, method, family, populations, coherence, opts, return_sectors):
    traj, bundle, _ = _solve(params, times, method, family, populations, coherence, opts,
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


def standard_projection_population(params: SystemParams, times) -> Trajectory:
    """TCL2 populations under the standard product projection (closed form).

    P_+(t) = [1 + exp(-(8A^2 N/omega0^2)(1 - cos omega0 t))]/2; only the
    initial condition P_+(0) = 1 is supported (as printed).
    """
    if params.initial_p_plus != 1.0:
        raise ValueError(
            "standard_projection_population requires initial_p_plus = 1"
        )
    t = _validate_times(times)
    rate = 8.0 * params.A * params.A * params.N / params.omega0**2
    p_plus = 0.5 * (1.0 + np.exp(-rate * (1.0 - np.cos(params.omega0 * t))))
    return Trajectory(
        times=t, p_plus=p_plus, p_minus=1.0 - p_plus, coh=None,
        method="standard", projection="product", params=params,
    )


def j3tot_expectation(bundle: SectorBundle) -> np.ndarray:
    """tr{J_3^tot P rho(t)} = sum_m [(m + 1/2) P^m_+ + (m - 1/2) P^m_-].

    The sector sum runs over a C-ordered copy, so its rounding (and
    report.csv's ``j3tot_drift``) does not depend on the memory layout of the
    bundle.
    """
    if bundle.p_plus is None or bundle.p_minus is None:
        raise ValueError("sector populations required")
    m = 0.5 * bundle.two_m.astype(float)
    weighted = (m + 0.5)[:, None] * bundle.p_plus + (m - 0.5)[:, None] * bundle.p_minus
    return np.add.reduce(np.ascontiguousarray(weighted), axis=0)


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
    coh, _ = _coherence_totals(params, fam, t, xs.T)
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

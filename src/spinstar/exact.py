"""Closed-form exact dynamics of the central spin for uniform couplings.

The bath decomposes into (j, m) multiplets; within each, the pair
|+> (x) |j,m>  <->  |-> (x) |j,m+1> evolves as a detuned two-level Rabi
problem with frequency mu_+(j, m) and detuning Omega_+(m).  Populations and
coherences of the reduced state are weighted double sums over sectors.

Everything is reported in the rotating frame of the central spin; the A=0
limit therefore leaves both populations and coherence constant.
"""

from __future__ import annotations

import numpy as np

from .sectors import SectorFamily, SystemParams, sector_family
from .trajectory import Trajectory, _validate_times

__all__ = ["exact_population_plus", "exact_coherence", "exact_trajectory"]

# times are processed in chunks to bound the (n_sectors, n_times) temporaries
_TIME_CHUNK = 2048


def _branch_terms(fam: SectorFamily, branch: int):
    """(omega, mu, 4A^2 b(j, +-m)) arrays for one branch over the jm table."""
    om, b4 = (fam.om_p, fam.b_p) if branch == +1 else (fam.om_m, fam.b_m)
    return om, np.sqrt(0.25 * om * om + b4), b4


def _sin_over_mu(mu, t):
    """sin(mu t)/mu, evaluated as t*sinc near mu = 0 (degenerate sectors)."""
    x = np.multiply.outer(mu, t)
    small = mu < 1e-300
    safe_mu = np.where(small, 1.0, mu)
    out = np.sin(x) / safe_mu[:, None]
    if np.any(small):
        out[small, :] = t[None, :]
    return out


def _survival(fam: SectorFamily, times, branch: int, sector_mask=None) -> np.ndarray:
    """population_survival on the jm table ``fam`` and validated ``times``."""
    _, mus, b4 = _branch_terms(fam, branch)
    coef = fam.w * b4  # deficit amplitude per sector
    if sector_mask is not None:
        coef = np.where(sector_mask, coef, 0.0)
    out = np.empty_like(times)
    for lo in range(0, times.size, _TIME_CHUNK):
        t = times[lo : lo + _TIME_CHUNK]
        s = _sin_over_mu(mus, t)
        out[lo : lo + _TIME_CHUNK] = 1.0 - np.add.reduce(coef[:, None] * s * s, axis=0)
    return out


def population_survival(
    params: SystemParams, times: np.ndarray, branch: int, sector_mask=None
) -> np.ndarray:
    """Probability that the central spin stays in |+> (branch=+1) or |-> (branch=-1).

    Evaluated as 1 - sum_s w_s * 4A^2 b_s * (sin(mu_s t)/mu_s)^2, which is
    exactly 1 at t = 0 and free of 0/0 at degenerate sectors.  ``sector_mask``
    restricts the sum (used by truncation diagnostics); the dropped weight is
    then missing from the constant term as well, so the result stays a
    survival probability of the truncated ensemble plus the frozen remainder.
    """
    times = _validate_times(times)
    return _survival(sector_family(params, "jm"), times, branch, sector_mask)


def _population_plus(params: SystemParams, fam: SectorFamily, t) -> np.ndarray:
    """P_+(t) by linearity between the solutions started in |+> and in |->."""
    p0 = params.initial_p_plus
    return p0 * _survival(fam, t, +1) + (1.0 - p0) * (1.0 - _survival(fam, t, -1))


def exact_population_plus(params: SystemParams, times) -> Trajectory:
    """Exact upper-state population P_+(t) (populations only).

    Arbitrary initial_p_plus is handled by linearity between the solution
    started in |+> and its mirror started in |->.
    """
    t = _validate_times(times)
    p_plus = _population_plus(params, sector_family(params, "jm"), t)
    return Trajectory(
        times=t,
        p_plus=p_plus,
        p_minus=1.0 - p_plus,
        coh=None,
        method="exact",
        projection="none",
        params=params,
    )


def _coherence(params: SystemParams, fam: SectorFamily, t) -> np.ndarray:
    """rho_{+-}(t) on the jm table ``fam`` and validated ``t``."""
    om_p, mu_p, _ = _branch_terms(fam, +1)
    om_m, mu_m, _ = _branch_terms(fam, -1)
    coh0 = complex(params.initial_coh)

    coh = np.empty(t.shape, dtype=complex)
    for lo in range(0, t.size, _TIME_CHUNK):
        tc = t[lo : lo + _TIME_CHUNK]
        sp = _sin_over_mu(mu_p, tc)
        sm = _sin_over_mu(mu_m, tc)
        br_p = np.cos(np.multiply.outer(mu_p, tc)) - 0.5j * om_p[:, None] * sp
        br_m = np.cos(np.multiply.outer(mu_m, tc)) + 0.5j * om_m[:, None] * sm
        phase = np.exp(1j * params.omega0 * tc)[None, :]
        # written as 1 + sum w (f - 1) so that coh(0) == initial_coh exactly
        factor = 1.0 + np.add.reduce(fam.w[:, None] * (phase * br_p * br_m - 1.0), axis=0)
        coh[lo : lo + _TIME_CHUNK] = coh0 * factor
    return coh


def exact_coherence(params: SystemParams, times) -> Trajectory:
    """Exact coherence rho_{+-}(t) in the rotating frame (coherence only)."""
    t = _validate_times(times)
    return Trajectory(
        times=t,
        p_plus=None,
        p_minus=None,
        coh=_coherence(params, sector_family(params, "jm"), t),
        method="exact",
        projection="none",
        params=params,
    )


def exact_trajectory(params: SystemParams, times) -> Trajectory:
    """Populations and coherence in one trajectory, from one jm sector table."""
    t, fam = _validate_times(times), sector_family(params, "jm")
    p_plus = _population_plus(params, fam, t)
    return Trajectory(
        times=t,
        p_plus=p_plus,
        p_minus=1.0 - p_plus,
        coh=_coherence(params, fam, t),
        method="exact",
        projection="none",
        params=params,
    )

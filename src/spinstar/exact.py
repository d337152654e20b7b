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
from .trajectory import Trajectory, _time_chunks, _validate_times

__all__ = ["exact_population_plus", "exact_coherence", "exact_trajectory"]


def _sector_pass(params: SystemParams, fam: SectorFamily, t, coherence: bool):
    """(survival of |+>, survival of |->, rho_{+-}(t) or None) in one sweep of the jm table.

    Survival is 1 - sum_s w_s 4A^2 b_s (sin(mu_s t)/mu_s)^2, exactly 1 at t = 0,
    with sin(mu t)/mu taken as t where mu = 0 (degenerate sectors).  The
    coherence is coh0 [1 + sum_s w_s (f_s - 1)], so coh(0) == initial_coh
    exactly.  Each branch takes sin and cos of mu t once per time chunk.
    """
    branches = []  # amplitudes cos(mu t) -+ (i Omega_+-/2) sin(mu t)/mu of the +/- branch
    for om, b4, combine in ((fam.om_p, fam.b_p, np.subtract), (fam.om_m, fam.b_m, np.add)):
        mu = np.sqrt(0.25 * om * om + b4)
        small = mu < 1e-300
        safe_mu = np.where(small, 1.0, mu)[:, None]
        branches.append((mu, safe_mu, small, (fam.w * b4)[:, None], 0.5j * om[:, None], combine))
    surv = np.empty((2, t.size))
    coh = np.empty(t.size, dtype=complex) if coherence else None
    for sl in _time_chunks(t.size, 16 * fam.w.size):
        tc = t[sl]
        br = []
        for k, (mu, safe_mu, small, coef, half_om, combine) in enumerate(branches):
            x = np.multiply.outer(mu, tc)
            s = np.sin(x) / safe_mu
            s[small, :] = tc
            surv[k, sl] = 1.0 - np.add.reduce(coef * s * s, axis=0)
            if coherence:  # in place, so a chunk holds few budget-sized temporaries
                h = half_om * s
                br.append(combine(np.cos(x, out=x), h, out=h))
        if coherence:  # w (phase br_+ br_- - 1), formed in br_+
            f = np.multiply(np.exp(1j * params.omega0 * tc)[None, :], br[0], out=br[0])
            f *= br[1]
            f -= 1.0
            np.multiply(fam.w[:, None], f, out=f)
            coh[sl] = complex(params.initial_coh) * (1.0 + np.add.reduce(f, axis=0))
    return surv[0], surv[1], coh


def _exact(params: SystemParams, times, populations: bool, coherence: bool) -> Trajectory:
    """The exact trajectory with populations and/or coherence, from one jm sector table.

    Arbitrary initial_p_plus is handled by linearity between the solution
    started in |+> and its mirror started in |->.
    """
    t = _validate_times(times)
    s_plus, s_minus, coh = _sector_pass(params, sector_family(params, "jm"), t, coherence)
    p_plus = None
    if populations:
        p0 = params.initial_p_plus
        p_plus = p0 * s_plus + (1.0 - p0) * (1.0 - s_minus)
    return Trajectory(
        times=t,
        p_plus=p_plus,
        p_minus=None if p_plus is None else 1.0 - p_plus,
        coh=coh,
        method="exact",
        projection="none",
        params=params,
    )


def exact_population_plus(params: SystemParams, times) -> Trajectory:
    """Exact upper-state population P_+(t) (populations only)."""
    return _exact(params, times, True, False)


def exact_coherence(params: SystemParams, times) -> Trajectory:
    """Exact coherence rho_{+-}(t) in the rotating frame (coherence only)."""
    return _exact(params, times, False, True)


def exact_trajectory(params: SystemParams, times) -> Trajectory:
    """Populations and coherence in one trajectory, from one jm sector table."""
    return _exact(params, times, True, True)

"""Closed-form exact dynamics of the central spin for uniform couplings.

The bath decomposes into (j, m) multiplets; within each, the pair
|+> (x) |j,m>  <->  |-> (x) |j,m+1> evolves as a detuned two-level Rabi
problem with frequency mu_+(j, m) and detuning Omega_+(m).  Populations and
coherences of the reduced state are weighted sums over sectors.  The |->
branch of sector (j, m) is the pair of (j, m-1), so each pair is evaluated once.

Everything is reported in the rotating frame of the central spin; the A=0
limit therefore leaves both populations and coherence constant.
"""

from __future__ import annotations

import numpy as np

from .sectors import SectorFamily, SystemParams, sector_family
from .trajectory import Trajectory, _time_chunks, _trajectory, _validate_times

__all__ = ["exact_population_plus", "exact_coherence", "exact_trajectory"]


def _sector_pass(params: SystemParams, fam: SectorFamily, t, coherence: bool):
    """(survival of |+>, rho_{+-}(t) or None) in one sweep of the jm pair rows.

    The rows are the |+> branch of every sector, then the |-> branch of each
    chain bottom m = -j.  The |-> branch of any other sector is row ``lower``,
    the |+> branch of m-1.  Survival is 1 - sum_s w_s 4A^2 b_s (sin(mu_s t)/mu_s)^2
    over the |+> rows, exactly 1 at t = 0, with sin(mu t)/mu taken as t where
    mu = 0; that of |-> is the same sum bit for bit, shifted by one row along
    each chain with b = 0 at both ends.  The coherence is
    coh0 [1 + sum_s w_s (f_s - 1)], so coh(0) == initial_coh exactly.
    """
    size, bottom = fam.w.size, np.flatnonzero(fam.lower < 0)
    om = np.concatenate([fam.om_p, -fam.om_m[bottom]])
    mu = np.sqrt(0.25 * om * om + np.concatenate([fam.b_p, fam.b_m[bottom]]))
    minus = np.where(fam.lower >= 0, fam.lower, size + np.cumsum(fam.lower < 0) - 1)
    small = mu < 1e-300
    safe_mu = np.where(small, 1.0, mu)[:, None]
    coef, half_om = (fam.w * fam.b_p)[:, None], 0.5j * om[:, None]
    surv = np.empty(t.size)
    coh = np.empty(t.size, dtype=complex) if coherence else None
    for sl in _time_chunks(t.size, 16 * mu.size):  # one complex (rows, chunk) block
        tc = t[sl]
        x = np.multiply.outer(mu, tc)
        s = np.sin(x) / safe_mu
        s[small, :] = tc
        surv[sl] = 1.0 - np.add.reduce(coef * s[:size] * s[:size], axis=0)
        if coherence:  # amplitudes cos(mu t) - (i Omega/2) sin(mu t)/mu, in place
            br = half_om * s
            np.subtract(np.cos(x, out=x), br, out=br)
            del x, s
            br_minus = br[minus]
            # w (phase br_+ br_- - 1), formed in br_+
            f = np.multiply(np.exp(1j * params.omega0 * tc)[None, :], br[:size], out=br[:size])
            f *= br_minus
            f -= 1.0
            np.multiply(fam.w[:, None], f, out=f)
            coh[sl] = complex(params.initial_coh) * (1.0 + np.add.reduce(f, axis=0))
            del br, br_minus, f  # before the next chunk makes its own
    return surv, coh


def _exact(params: SystemParams, times, populations: bool, coherence: bool) -> Trajectory:
    """The exact trajectory with populations and/or coherence, from one jm sector table.

    Arbitrary initial_p_plus is handled by linearity between the solution
    started in |+> and its mirror started in |->.
    """
    t = _validate_times(times)
    surv, coh = _sector_pass(params, sector_family(params, "jm"), t, coherence)
    p_plus = None
    if populations:
        p0 = params.initial_p_plus
        p_plus = p0 * surv + (1.0 - p0) * (1.0 - surv)
    return _trajectory(params, t, "exact", "none", p_plus, coh)


def exact_population_plus(params: SystemParams, times) -> Trajectory:
    """Exact upper-state population P_+(t) (populations only)."""
    return _exact(params, times, True, False)


def exact_coherence(params: SystemParams, times) -> Trajectory:
    """Exact coherence rho_{+-}(t) in the rotating frame (coherence only)."""
    return _exact(params, times, False, True)


def exact_trajectory(params: SystemParams, times) -> Trajectory:
    """Populations and coherence in one trajectory, from one jm sector table."""
    return _exact(params, times, True, True)

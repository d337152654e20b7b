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
from .trajectory import (Trajectory, _add_rows, _sector_blocks, _time_chunks, _trajectory,
                         _validate_times)

__all__ = ["exact_population_plus", "exact_coherence", "exact_trajectory"]


def _pair_rows(fam: SectorFamily):
    """(mu, mu == 0, sin(mu t)/mu divisor, w 4A^2 b_+, i Omega/2, |-> row) of the pair rows.

    The rows are the |+> branch of every sector, then the |-> branch of each
    chain bottom m = -j.  The |-> branch of any other sector is row ``lower``,
    the |+> branch of m-1.
    """
    size, bottom = fam.w.size, np.flatnonzero(fam.lower < 0)
    om = np.concatenate([fam.om_p, -fam.om_m[bottom]])
    mu = np.sqrt(0.25 * om * om + np.concatenate([fam.b_p, fam.b_m[bottom]]))
    minus = np.where(fam.lower >= 0, fam.lower, size + np.cumsum(fam.lower < 0) - 1)
    small = mu < 1e-300
    return (mu, small, np.where(small, 1.0, mu)[:, None], (fam.w * fam.b_p)[:, None],
            0.5j * om[:, None], minus)


def _tile(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """A C-ordered (rows, n) view of the front of the flat buffer ``buf``."""
    return buf[:rows * n].reshape(rows, n)


def _sector_pass(params: SystemParams, fam: SectorFamily, t, coherence: bool):
    """(survival of |+>, rho_{+-}(t) or None) in one sweep of the jm pair rows.

    Survival is 1 - sum_s w_s 4A^2 b_s (sin(mu_s t)/mu_s)^2 over the |+> rows,
    exactly 1 at t = 0, with sin(mu t)/mu taken as t where mu = 0; that of |->
    is the same sum bit for bit, shifted by one row along each chain with
    b = 0 at both ends.  The coherence is coh0 [1 + sum_s w_s (f_s - 1)], so
    coh(0) == initial_coh exactly.

    The sweep runs over (sector block, time chunk) tiles.  Every tile is
    computed in one set of buffers, allocated once for the largest tile, so
    the heap a run leaves behind does not depend on the tile shapes.
    """
    blocks = [(sub, _pair_rows(sub)) for sub in
              (fam.block(blk) for blk in _sector_blocks(fam.lower, t.size, 16))]
    rows = max(pair[0].size for _, pair in blocks)
    chunks = list(_time_chunks(t.size, 16 * rows))  # one complex (rows, chunk) block
    cells = rows * max(sl.stop - sl.start for sl in chunks)
    x_buf, s_buf, sq_buf = np.empty(cells), np.empty(cells), np.empty(cells)
    if coherence:
        br_buf, minus_buf = np.empty(cells, complex), np.empty(cells, complex)
    surv = np.empty(t.size)
    coh = np.empty(t.size, dtype=complex) if coherence else None
    for sl in chunks:
        tc = t[sl]
        phase = np.exp(1j * params.omega0 * tc)[None, :] if coherence else None
        acc_surv = acc_coh = None
        for sub, (mu, small, safe_mu, coef, half_om, minus) in blocks:
            rows, size = mu.size, sub.w.size
            x = np.multiply.outer(mu, tc, out=_tile(x_buf, rows, tc.size))
            s = np.sin(x, out=_tile(s_buf, rows, tc.size))
            s /= safe_mu
            s[small, :] = tc
            sq = np.multiply(coef, s[:size], out=_tile(sq_buf, size, tc.size))
            sq *= s[:size]
            acc_surv = _add_rows(sq, acc_surv)
            if coherence:  # amplitudes cos(mu t) - (i Omega/2) sin(mu t)/mu
                br = np.multiply(half_om, s, out=_tile(br_buf, rows, tc.size))
                np.subtract(np.cos(x, out=x), br, out=br)
                # mode="clip" fills out= directly; "raise" would buffer it (minus is in range)
                br_minus = np.take(br, minus, axis=0, out=_tile(minus_buf, size, tc.size),
                                   mode="clip")
                # w (phase br_+ br_- - 1), formed in br_+
                f = np.multiply(phase, br[:size], out=br[:size])
                f *= br_minus
                f -= 1.0
                np.multiply(sub.w[:, None], f, out=f)
                acc_coh = _add_rows(f, acc_coh)
        surv[sl] = 1.0 - acc_surv
        if coherence:
            coh[sl] = complex(params.initial_coh) * (1.0 + acc_coh)
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

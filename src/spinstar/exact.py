"""Closed-form exact dynamics of the central spin for uniform couplings.

The bath decomposes into (j, m) multiplets; within each, the pair
|+> (x) |j,m>  <->  |-> (x) |j,m+1> evolves as a detuned two-level Rabi
problem with frequency mu_+(j, m) and detuning Omega_+(m).  Populations and
coherences of the reduced state are weighted sums over sectors.  The |->
branch of sector (j, m) is the pair of (j, m-1), so each pair is evaluated once.

Everything is reported in the rotating frame of the central spin; the A=0
limit therefore leaves both populations and coherence constant.

Two routes evaluate the sector sums, both in memory bounded by
trajectory._CHUNK_BYTES.  Where trajectory._uniform_step finds a uniform
grid and trajectory._kernel_pays finds it long enough for the terms, at
_PAIR_ROW_NS per pair-row point of the sweep, ``_uniform_pass`` writes them as
sums of exponentials in time and evaluates them by the baby-step/giant-step
GEMM of trajectory._exp_sum, in K blocks of a fixed
trajectory._EXP_SUM_BLOCK terms, so that the budget moves no bit of them.
At N = 101 and 1000 that is from 27 and 28 times on (5 terms per sector).
On any other grid ``_sector_pass`` sweeps (sector block, time chunk) tiles
of sines and cosines, its time chunks spread over up to two threads, one
per allowed CPU, by trajectory._sweep, bit for bit whatever the thread
count; it is also the reference the uniform route is tested against.
"""

from __future__ import annotations

import numpy as np

from . import trajectory
from .sectors import SectorFamily, SystemParams, sector_family
from .trajectory import (Trajectory, _add_rows, _exp_sum, _sector_blocks, _sector_slices, _sweep,
                         _tile, _trajectory, _uniform_step, _validate_times)

__all__ = ["exact_population_plus", "exact_coherence", "exact_trajectory"]

#: ns per (pair row, time) point of ``_sector_pass`` with both parts, for
#: trajectory._kernel_pays: 21-24 at the margin on 256 to 1024 times and 27-58 in all on
#: 64 (N = 101 and 1000, one BLAS thread of a 2-vCPU host)
_PAIR_ROW_NS = 40.0


def _pair_rows(fam: SectorFamily):
    """(Omega, mu, |-> row) of the pair rows.

    The rows are the |+> branch of every sector, then the |-> branch of each
    chain bottom m = -j.  The |-> branch of any other sector is row ``lower``,
    the |+> branch of m-1.
    """
    size, bottom = fam.w.size, np.flatnonzero(fam.lower < 0)
    om = np.concatenate([fam.om_p, -fam.om_m[bottom]])
    mu = np.sqrt(0.25 * om * om + np.concatenate([fam.b_p, fam.b_m[bottom]]))
    minus = np.where(fam.lower >= 0, fam.lower, size + np.cumsum(fam.lower < 0) - 1)
    return om, mu, minus


def _sector_pass(params: SystemParams, fam: SectorFamily, t, coherence: bool):
    """(survival of |+>, rho_{+-}(t) or None) in one sweep of the jm pair rows.

    Survival is 1 - sum_s w_s 4A^2 b_s (sin(mu_s t)/mu_s)^2 over the |+> rows,
    exactly 1 at t = 0, with sin(mu t)/mu taken as t where mu = 0; that of |->
    is the same sum bit for bit, shifted by one row along each chain with
    b = 0 at both ends.  The coherence is coh0 [1 + sum_s w_s (f_s - 1)], so
    coh(0) == initial_coh exactly.

    The sweep runs over (sector block, time chunk) tiles, its time chunks
    spread over the workers of trajectory._sweep.  Every tile of a worker is
    computed in one set of buffers, allocated once for the largest tile, so
    the heap a run leaves behind does not depend on the tile shapes.
    """
    blocks = []
    for sub in (fam.block(blk) for blk in _sector_blocks(fam.lower, t.size, 16)):
        om, mu, minus = _pair_rows(sub)
        small = mu < 1e-300
        blocks.append((sub, (mu, small, np.where(small, 1.0, mu)[:, None],
                             (sub.w * sub.b_p)[:, None], 0.5j * om[:, None], minus)))
    rows = max(pair[0].size for _, pair in blocks)
    surv = np.empty(t.size)
    coh = np.empty(t.size, dtype=complex) if coherence else None

    def buffers(n, width):  # x, s and sq, then br_+ and br_- for the coherence
        return [np.empty((n, rows * width), dtype)
                for dtype in (float,) * 3 + (complex,) * (2 if coherence else 0)]

    def sweep(chunks, x_buf, s_buf, sq_buf, br_buf=None, minus_buf=None):
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

    _sweep(t.size, 16 * rows, buffers, sweep)  # one complex (rows, chunk) block per worker
    return surv, coh


def _uniform_pass(params: SystemParams, fam: SectorFamily, t, dt: float, populations: bool,
                  coherence: bool):
    """(survival of |+> or None, rho_{+-}(t) or None) on the uniform grid t, by _exp_sum.

    Survival is 1 - sum_s a_s (1 - cos 2 mu_s t) with a_s = w_s 4A^2 b_s /
    (2 mu_s^2) <= w_s.  With alpha = Omega/(2 mu), |alpha| <= 1, each pair
    amplitude cos(mu t) - i alpha sin(mu t) is ((1 - alpha) e^{i mu t} +
    (1 + alpha) e^{-i mu t})/2, so the coherence term w e^{i omega0 t} br_+
    br_- splits into four exponentials of frequency omega0 +- mu_+ +- mu_-
    and amplitude w (1 -+ alpha_+)(1 -+ alpha_-)/4, none of them cancelling.
    A row with mu = 0 has br = 1 and takes alpha = 0.  Both totals are
    written as E(t) - E(0) from one GEMM, so they are exact at t = 0; at
    A = 0 every survival amplitude is 0 and every coherence term of nonzero
    amplitude has frequency 0.  The terms go to _exp_sum in the slices of
    trajectory._sector_slices, one per sector, so no (amp, nu) array spans the table.
    """
    om, mu, minus = _pair_rows(fam)
    nonzero = mu >= 1e-300
    slices = list(_sector_slices(np.ones(fam.w.size, int), lambda rows, _: rows))

    def ratio(num, den, rows):  # num/den on the pair rows ``rows``, 0 where mu = 0
        return np.divide(num, den, out=np.zeros(rows.size), where=nonzero[rows])

    surv = coh = None
    if populations:
        terms = ((ratio(fam.w[s] * fam.b_p[s], 2.0 * mu[s] ** 2, s), 2.0 * mu[s]) for s in slices)
        surv = 1.0 + _exp_sum(terms, t[0], dt, t.size).real
    if coherence:
        def alpha(rows):
            return ratio(om[rows], 2.0 * mu[rows], rows)

        # one sign pair at a time: (1 - sign alpha)/2 multiplies e^{i sign mu t}
        terms = ((0.25 * fam.w[s] * (1.0 - sign_p * alpha(s)) * (1.0 - sign_m * alpha(minus[s])),
                  params.omega0 + sign_p * mu[s] + sign_m * mu[minus[s]])
                 for sign_p in (1.0, -1.0) for sign_m in (1.0, -1.0) for s in slices)
        coh = complex(params.initial_coh) * (1.0 + _exp_sum(terms, t[0], dt, t.size))
    return surv, coh


def _exact(params: SystemParams, times, populations: bool, coherence: bool) -> Trajectory:
    """The exact trajectory with populations and/or coherence, from one jm sector table.

    Arbitrary initial_p_plus is handled by linearity between the solution
    started in |+> and its mirror started in |->.
    """
    t, fam = _validate_times(times), sector_family(params, "jm")
    dt, size = _uniform_step(t), fam.w.size
    rows = size + int(np.count_nonzero(fam.lower < 0))  # of _pair_rows
    if dt is None or not trajectory._kernel_pays(t.size, rows * _PAIR_ROW_NS,
                                                 size * (populations + 4 * coherence)):
        surv, coh = _sector_pass(params, fam, t, coherence)
    else:
        surv, coh = _uniform_pass(params, fam, t, dt, populations, coherence)
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

"""Closed-form exact dynamics of the central spin for uniform couplings.

The bath decomposes into (j, m) multiplets; within each, the pair
|+> (x) |j,m>  <->  |-> (x) |j,m+1> evolves as a detuned two-level Rabi
problem with frequency mu_+(j, m) and detuning Omega_+(m).  Populations and
coherences of the reduced state are weighted sums over sectors.  The |->
branch of sector (j, m) is the pair of (j, m-1), so each pair is evaluated once.

Everything is reported in the rotating frame of the central spin; the A=0
limit therefore leaves both populations and coherence constant.

The sums take the one route of every method, trajectory._sector_sums, in memory
bounded by trajectory._CHUNK_BYTES, with ``_exact_fill`` beside the TCL2 and
NZ2 fills of masters.  Where the grid is uniform it hands over each part as a
sum of exponentials in time (``_exact_terms``, 1 term per sector for the
survival and 4 for the coherence) for trajectory._exp_sum.  On any other grid
its (sector block, time chunk) tiles evaluate the Rabi pair rows, taking
sin(mu t) once for both parts.
"""

from __future__ import annotations

import numpy as np

from .sectors import SectorFamily, SystemParams, sector_family
from .trajectory import (Trajectory, _sector_slices, _sector_sums, _tile, _trajectory,
                         _validate_times)

__all__ = ["exact_population_plus", "exact_coherence", "exact_trajectory"]

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


def _exact_fill(params: SystemParams, fam: SectorFamily, t, populations: bool,
                coherence: bool, opts, dt):
    """(fill, coherence part, population part) of the exact sums; ``opts`` does not apply.

    A tile writes the survival term -w_s 4A^2 b_s (sin(mu_s t)/mu_s)^2 of each sector's
    |+> row into gm1, sin(mu t)/mu taken as t where mu = 0, so the survival 1 + S is 1
    at t = 0; that of |-> is the same sum bit for bit, shifted by one row along each
    chain with b = 0 at both ends.  From the same sines it writes f_s = e^{i omega0 t}
    br_+ br_- into f, br = cos(mu t) - i (Omega/2) sin(mu t)/mu, br_- the br_+ of the
    row below, gathered into the scratch, or of a chain bottom's small tile.  A part
    is its ``_exact_terms`` where asked on a uniform grid (``dt`` not None), else None.
    """
    om, mu, minus = _pair_rows(fam)
    small = mu < 1e-300
    safe_mu, half_om = np.where(small, 1.0, mu)[:, None], 0.5j * om[:, None]
    coef = -(fam.w * fam.b_p)[:, None]

    def chunk(sl, with_coh):
        tc = t[sl]
        phase = np.exp(1j * params.omega0 * tc)[None, :] if with_coh else None

        def amplitudes(rows, x, s, br):  # x is overwritten; br None for sin(mu t)/mu alone
            np.sin(np.multiply.outer(mu[rows], tc, out=x), out=s)
            s /= safe_mu[rows]
            s[small[rows], :] = tc
            if br is not None:
                np.multiply(half_om[rows], s, out=br)
                np.subtract(np.cos(x, out=x), br, out=br)

        def tile(sub, blk, f, gm1, g, scratch):
            shape, flat = (sub.w.size, tc.size), scratch.view(float)
            s = _tile(flat[sub.w.size * tc.size:], *shape)
            amplitudes(blk, _tile(flat, *shape), s, f)
            if gm1 is not None:
                np.multiply(coef[blk], s, out=gm1)
                gm1 *= s
            if f is not None:
                bottom = np.flatnonzero(sub.lower < 0)  # a block starts at a chain bottom
                br_b = np.empty((bottom.size, tc.size), complex)
                amplitudes(slice(minus[blk.start], minus[blk.start] + bottom.size),
                           np.empty(br_b.shape), np.empty(br_b.shape), br_b)
                # mode="clip" fills out= directly; the clipped rows are the bottoms, set next
                br_m = np.take(f, sub.lower, axis=0, out=_tile(scratch, *shape), mode="clip")
                br_m[bottom] = br_b
                np.multiply(phase, f, out=f)
                f *= br_m

        return tile

    if dt is None:
        return chunk, None, None
    pop, coh = _exact_terms(params, fam, om, mu, minus)
    return chunk, coh if coherence else None, pop if populations else None


def _exact_terms(params: SystemParams, fam: SectorFamily, om, mu, minus):
    """The (amp, nu) terms of the survival sum and of the coherence sum, as generators.

    Survival is 1 - sum_s a_s (1 - cos 2 mu_s t) with a_s = w_s 4A^2 b_s / (2 mu_s^2)
    <= w_s, so its sum is Re(E(t) - E(0)) of the terms (a_s, 2 mu_s).  With alpha =
    Omega/(2 mu), |alpha| <= 1, each pair amplitude cos(mu t) - i alpha sin(mu t) is
    ((1 - alpha) e^{i mu t} + (1 + alpha) e^{-i mu t})/2, so the coherence term
    w e^{i omega0 t} br_+ br_- splits into four exponentials of frequency omega0 +-
    mu_+ +- mu_- and amplitude w (1 -+ alpha_+)(1 -+ alpha_-)/4, none of them
    cancelling.  A row with mu = 0 has br = 1 and takes alpha = 0.  At A = 0 every
    survival amplitude is 0 and every coherence term of nonzero amplitude has
    frequency 0.  The terms come in the slices of trajectory._sector_slices, one per
    sector, so no (amp, nu) array spans the table.
    """
    nonzero = mu >= 1e-300
    slices = list(_sector_slices(np.ones(fam.w.size, int), lambda rows, _: rows))

    def ratio(num, den, rows):  # num/den on the pair rows ``rows``, 0 where mu = 0
        return np.divide(num, den, out=np.zeros(rows.size), where=nonzero[rows])

    def alpha(rows):
        return ratio(om[rows], 2.0 * mu[rows], rows)

    pop = ((ratio(fam.w[s] * fam.b_p[s], 2.0 * mu[s] ** 2, s), 2.0 * mu[s]) for s in slices)
    # one sign pair at a time: (1 - sign alpha)/2 multiplies e^{i sign mu t}
    coh = ((0.25 * fam.w[s] * (1.0 - sign_p * alpha(s)) * (1.0 - sign_m * alpha(minus[s])),
            params.omega0 + sign_p * mu[s] + sign_m * mu[minus[s]])
           for sign_p in (1.0, -1.0) for sign_m in (1.0, -1.0) for s in slices)
    return pop, coh


def _exact(params: SystemParams, times, populations: bool, coherence: bool) -> Trajectory:
    """The exact trajectory with populations and/or coherence, from one jm sector table.

    Arbitrary initial_p_plus is handled by linearity between the solution started in
    |+>, of survival 1 + S, and its mirror started in |->."""
    t, fam = _validate_times(times), sector_family(params, "jm")
    s_coh, s_pop, _, _ = _sector_sums(params, fam, t, populations, coherence, False,
                                      _exact_fill, None)
    p0, surv = params.initial_p_plus, None if s_pop is None else 1.0 + s_pop
    p_plus = None if surv is None else p0 * surv + (1.0 - p0) * (1.0 - surv)
    coh = None if s_coh is None else complex(params.initial_coh) * (1.0 + s_coh)
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

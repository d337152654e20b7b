"""Independent numerically exact reference for the spin-star dynamics.

The full Hamiltonian conserves J_3^tot, so the Hilbert space splits into
blocks pairing the bath sector m on the |+> side with the sector m+1 on the
|-> side.  Each block is diagonalized once (``numpy.linalg.eigh``); reduced
populations and coherences then follow from phase sums over the distinct
energy levels of each block, with no time stepping and no truncation.  An
RK4 route on the full von Neumann equation is kept as a slow cross-check at
small N.

Conventions match the rest of the package: bath qubit k sits at bit k of the
basis index, bit value 0 means spin up, and the reported coherence is in the
rotating frame of the central spin (multiply by e^{i omega0 t}).

This module is deliberately independent of the closed-form solution: it
never touches the (j, m) weight combinatorics and obtains sector resolution
from explicit projectors instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import trajectory
from .sectors import SystemParams
from .trajectory import Trajectory, _time_chunks, _validate_times
from .volterra import SolveOptions, integrate_linear_ode

__all__ = [
    "CapacityError",
    "MAX_BATH_SPINS",
    "MAX_DENSE_BATH_SPINS",
    "OracleResult",
    "propagate",
    "build_hamiltonian",
    "check_projection_conditions",
    "ProjectionConditionReport",
    "check_plp_zero",
]

#: hard cap for the blockwise spectral route (largest block 6435 states); 1001 times
#: with resolve="none" on one BLAS thread take 3.4-4.2 s and 273 MB peak RSS at N = 12,
#: 24-30 s and 822 MB at N = 13 (child processes, mostly eigh); N = 14 is unmeasured
MAX_BATH_SPINS = 14
#: cap for what still builds full 2^(N+1)-dimensional matrices: ``build_hamiltonian``,
#: the ODE oracle and the raw random draws of ``check_plp_zero``
MAX_DENSE_BATH_SPINS = 8


def _check_couplings(N: int, couplings) -> np.ndarray | None:
    if couplings is None:
        return None
    c = np.asarray(couplings, dtype=float)
    if c.shape != (N,):
        raise ValueError(
            f"couplings must have length N (expected N = {N} values, got shape {c.shape})"
        )
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise ValueError(f"couplings must be finite, got {c[bad[0]]} at position {bad[0]}")
    return c


class CapacityError(ValueError):
    """Requested bath size exceeds what the dense reference can handle."""


def _require_capacity(N: int, limit: int, what: str) -> None:
    if N > limit:
        raise CapacityError(f"{what} supports at most N = {limit} bath spins, got {N}")


def _bath_two_m(N: int) -> np.ndarray:
    """two_m = N - 2 * (number of down spins) of every bath basis state."""
    n = np.arange(1 << N, dtype=np.int64)
    counts = np.zeros_like(n)
    for k in range(N):
        counts += (n >> k) & 1
    return N - 2 * counts


def _sector_states(N: int) -> dict[int, np.ndarray]:
    """Bath basis states (integers, ascending) grouped by two_m."""
    two_m = _bath_two_m(N)
    return {int(tm): np.nonzero(two_m == tm)[0] for tm in range(-N, N + 1, 2)}


def _jplus_block(
    states_lo: np.ndarray, states_hi: np.ndarray, weights=None
) -> np.ndarray:
    """Matrix of the collective raising operator from sector m to m+1.

    Row = state in the upper sector (one fewer down spin), column = state in
    the lower sector.  With ``weights`` this is the weighted ladder
    sum_k w_k s_+^(k) used for non-uniform couplings; otherwise every matrix
    element is 1 (spin-1/2 ladder).
    """
    index_hi = {int(s): i for i, s in enumerate(states_hi)}
    jp = np.zeros((states_hi.size, states_lo.size))
    for col, s in enumerate(states_lo):
        s = int(s)
        k = 0
        rem = s
        while rem:
            if rem & 1:  # down spin at bit k: raising flips it up
                jp[index_hi[s & ~(1 << k)], col] = 1.0 if weights is None else weights[k]
            rem >>= 1
            k += 1
    return jp


def _j2_sector(N: int, two_m: int, states: dict[int, np.ndarray]) -> np.ndarray:
    """Bath J^2 restricted to the sector m, via J^2 = J_- J_+ + J_3 (J_3 + 1)."""
    m = 0.5 * two_m
    if two_m == N:
        jmjp = np.zeros((1, 1))
    else:
        jp = _jplus_block(states[two_m], states[two_m + 2])
        jmjp = jp.T @ jp
    return jmjp + m * (m + 1.0) * np.eye(states[two_m].size)


def _j2_eigenblocks(N: int, two_m: int, states: dict[int, np.ndarray]):
    """Orthonormal eigenvector groups of J^2 in sector m, keyed by two_j."""
    evals, evecs = np.linalg.eigh(_j2_sector(N, two_m, states))
    two_j = np.rint(np.sqrt(4.0 * evals + 1.0) - 1.0).astype(int)  # j(j+1) -> 2j
    out = {}
    for tj in range(abs(two_m), N + 1, 2):
        cols = np.nonzero(two_j == tj)[0]
        if cols.size:
            out[tj] = evecs[:, cols]
    return out


# ---------------------------------------------------------------------------
# blockwise spectral propagation
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    """Eigen-data of one J_3^tot block: |+> x (sector b) with |-> x (sector b+2)."""

    energies: np.ndarray
    v_up: np.ndarray  # (dim_up, D) eigenvector components on the |+> rows
    v_dn: np.ndarray  # (dim_dn, D) components on the |-> rows
    starts: np.ndarray  # index of the first eigenvalue of every level
    levels: np.ndarray  # (G,) the levels, each the mean of its eigenvalues


#: neighbouring eigenvalues closer than this many eps * max(1, |E|max) are one level: ``eigh``
#: is accurate to a small multiple of eps ||H||, and a merge moves a phase by at most
#: the run's spread times |t|, the size of that error
_LEVEL_EPS = 64


def _levels(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and means of the runs of an ascending spectrum that make one level each.

    A run is split wherever two consecutive eigenvalues differ by more than
    the tolerance; where no level repeats, every run is a singleton and the
    means are the eigenvalues themselves.
    """
    tol = _LEVEL_EPS * np.finfo(float).eps * max(1.0, float(np.max(np.abs(energies))))
    starts = np.flatnonzero(np.diff(energies, prepend=-np.inf) > tol)
    return starts, np.add.reduceat(energies, starts) / np.diff(starts, append=energies.size)


def _zeeman_sums(N: int, couplings: np.ndarray) -> np.ndarray:
    """sum_k A_k * (+-1) over the spin orientations of every bath state."""
    out = np.full(1 << N, np.sum(couplings))
    n = np.arange(1 << N, dtype=np.int64)
    for k in range(N):
        out -= 2.0 * couplings[k] * ((n >> k) & 1)
    return out


def _build_blocks(params: SystemParams, couplings=None) -> dict[int, _Block]:
    N, w0 = params.N, params.omega0
    a_k = np.full(N, params.A) if couplings is None else couplings
    states = _sector_states(N)
    zsum = _zeeman_sums(N, a_k)
    blocks = {}
    for b in range(-N - 2, N + 1, 2):  # b = bath two_m of the |+> half
        n_up = states[b].size if -N <= b <= N else 0
        n_dn = states[b + 2].size if -N <= b + 2 <= N else 0
        dim = n_up + n_dn
        if dim == 0:
            continue
        h = np.zeros((dim, dim))
        if n_up:
            idx = np.arange(n_up)
            h[idx, idx] = 0.5 * w0 + zsum[states[b]]
        if n_dn:
            idx = np.arange(n_up, dim)
            h[idx, idx] = -0.5 * w0 - zsum[states[b + 2]]
        if n_up and n_dn:
            c = 2.0 * _jplus_block(states[b], states[b + 2], a_k).T
            h[:n_up, n_up:] = c
            h[n_up:, :n_up] = c.T
        energies, u = np.linalg.eigh(h)
        blocks[b] = _Block(energies, u[:n_up, :], u[n_up:, :], *_levels(energies))
    return blocks


#: real (chunk, G) arrays alive at once in one time chunk of ``propagate``: the four
#: cos/sin tables, the two GEMM outputs and one phase argument (G is the larger
#: level count of the sector's two blocks)
_TABLES_PER_CHUNK = 7


def _phase_table(times: np.ndarray, energies: np.ndarray):
    """(C, S) = (cos(t E), sin(t E)) on a time chunk, so that e^{-i E t} = C - i S."""
    arg = np.multiply.outer(times, energies)
    return np.cos(arg), np.sin(arg)


def _phase_sum(left, w: np.ndarray, right, imag: bool = True) -> np.ndarray:
    """sum_{kl} e^{-i E^L_k t} W[k,l] e^{+i E^R_l t} for real W from the sides' (C, S) tables.

    The real part is sum (C_L W) o C_R + (S_L W) o S_R and the imaginary part
    sum (C_L W) o S_R - (S_L W) o C_R: two real GEMMs.  ``imag=False`` returns
    the real part alone, which is the whole sum when W is symmetric and the
    two sides are one block.
    """
    (c_l, s_l), (c_r, s_r) = left, right
    cw, sw = c_l @ w, s_l @ w
    re = np.einsum("ij,ij->i", cw, c_r) + np.einsum("ij,ij->i", sw, s_r)
    if not imag:
        return re
    return re + 1j * (np.einsum("ij,ij->i", cw, s_r) - np.einsum("ij,ij->i", sw, c_r))


def _weighted(q_block: np.ndarray, q: np.ndarray, w_up: float, w_dn: float) -> np.ndarray:
    """(w_up Q + w_dn (I - Q)) o q, elementwise, for the Gram matrix Q = V_up^T V_up of a block.

    The block's eigenvectors are real and orthonormal, so its |-> half is
    V_dn^T V_dn = I - Q and w_up Q + w_dn (I - Q) is its initial state in
    the eigenbasis.
    """
    w = q_block * q
    w *= w_up - w_dn
    w[np.diag_indices_from(w)] += w_dn * np.diagonal(q)
    return w


def _fold(w: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_{k in g, l in h} W[k,l] for every pair of levels (g, h), given by their run starts.

    With e^{-iHt} = sum_g e^{-i E_g t} Pi_g, a phase sum over the eigenvalues
    equals the same sum over the levels with these folded weights, whatever
    basis ``eigh`` picked inside a degenerate level.
    """
    return np.add.reduceat(np.add.reduceat(w, rows, axis=0), cols, axis=1)


@dataclass
class OracleResult:
    """Reduced dynamics from exact diagonalization, optionally sector resolved.

    Sector arrays have shape (n_sectors, n_times); ``sector_two_j`` is None
    for the plain J_3 resolution.
    """

    times: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    coh: np.ndarray
    params: SystemParams
    sector_two_j: np.ndarray | None = None
    sector_two_m: np.ndarray | None = None
    sector_p_plus: np.ndarray | None = None
    sector_p_minus: np.ndarray | None = None
    sector_coh: np.ndarray | None = None

    def trajectory(self) -> Trajectory:
        return Trajectory(
            times=self.times, p_plus=self.p_plus, p_minus=self.p_minus,
            coh=self.coh, method="oracle", projection="none", params=self.params,
        )


def propagate(
    params: SystemParams, times, resolve: str = "none", method: str = "spectral",
    opts: SolveOptions | None = None, couplings=None,
) -> OracleResult:
    """Exact reduced dynamics of the central spin.

    ``resolve`` selects sector bookkeeping: "none", "m" (bath J_3 sectors) or
    "jm" (projectors onto the (J^2, J_3) eigenspaces).  ``method="ode"`` uses
    RK4 on the full von Neumann equation instead of the spectral route (slow,
    small N only, no sector resolution, uniform couplings only).
    ``couplings`` optionally replaces the uniform A by per-spin constants A_k
    (length N); the blockwise route is unchanged because J_3^tot stays
    conserved.

    The spectral route diagonalizes each J_3^tot block once and evaluates
    phase sums, so there is no integration error to control; the maximally
    mixed bath enters as uniform weights on the block projectors rather than
    as 2^N separate pure-state propagations.  Each weight matrix is folded
    onto the pairs of the blocks' distinct levels before the time loop (the
    uniform star's largest block has N + 1 levels, 9 against 126 eigenvalues
    at N = 8; where no level repeats, the fold changes nothing).  The
    eigenvectors are real, so each phase sum is two real GEMMs against
    cos(t E) and sin(t E) tables on the levels.  These are computed once per
    block and time chunk for each group of projectors whose folded weights
    fit the chunk budget together: the whole sector for the uniform star;
    with no repeated level, the whole sector up to N = 8 and one projector
    from N = 10.
    """
    _require_capacity(params.N, MAX_BATH_SPINS, "the spectral oracle")
    if resolve not in ("none", "m", "jm"):
        raise ValueError(f"unknown resolve {resolve!r}")
    couplings = _check_couplings(params.N, couplings)
    t = _validate_times(times)
    if method == "ode":
        if resolve != "none":
            raise ValueError("the ODE route has no sector resolution")
        if couplings is not None:
            raise ValueError("the ODE route supports uniform couplings only")
        return _propagate_ode(params, t, opts)
    if method != "spectral":
        raise ValueError(f"unknown method {method!r}")

    N = params.N
    states = _sector_states(N)
    blocks = _build_blocks(params, couplings)
    w_up = params.initial_p_plus / (1 << N)
    w_dn = (1.0 - params.initial_p_plus) / (1 << N)
    coh0 = complex(params.initial_coh)
    scale = coh0 / (1 << N)
    frame = np.exp(1j * params.omega0 * t)

    tjs, tms, pp, pm, cc = [], [], [], [], []
    # Q = V_up^T V_up of the block below the sector (its |-> rows) and of the block above
    q_below = blocks[-N - 2].v_up.T @ blocks[-N - 2].v_up
    for tm in range(-N, N + 1, 2):
        # bath sector tm sits on the |+> rows of block tm and the |-> rows of block tm - 2
        up, dn = blocks[tm], blocks[tm - 2]
        q_here = up.v_up.T @ up.v_up
        x = up.v_up.T @ dn.v_dn
        # per projector: (2j, its Gram matrices Y_up^T Y_up, Y_dn^T Y_dn and Y_up^T Y_dn),
        # Y being the block eigenvectors' components on the projector's subspace
        if resolve == "jm":
            ys = [(tj, xj.T @ up.v_up, xj.T @ dn.v_dn)
                  for tj, xj in sorted(_j2_eigenblocks(N, tm, states).items())]
            grams = ((tj, y_up.T @ y_up, y_dn.T @ y_dn, y_up.T @ y_dn) for tj, y_up, y_dn in ys)
        else:
            grams = iter([(None, q_here, np.eye(q_below.shape[0]) - q_below, x)])  # whole sector
        # each D x D temporary is folded onto the level pairs before the next is made
        weights = ((tj, _fold(_weighted(q_here, q_up, w_up, w_dn), up.starts, up.starts),
                    _fold(_weighted(q_below, q_dn, w_up, w_dn), dn.starts, dn.starts),
                    _fold(x * z, up.starts, dn.starts) if coh0 != 0.0 else None)
                   for tj, q_up, q_dn, z in grams)
        width = max(up.levels.size, dn.levels.size)
        # the weight matrices of as many projectors as fit the budget share each
        # time chunk's cos/sin tables; each group is freed before the next is built
        per_group = max(1, trajectory._CHUNK_BYTES // (3 * 8 * width**2))
        while group := list(itertools.islice(weights, per_group)):
            g_pp, g_pm = np.empty((2, len(group), t.size))
            g_cc = np.zeros((len(group), t.size), dtype=complex)
            for sl in _time_chunks(t.size, 8 * _TABLES_PER_CHUNK * width):
                tab_up, tab_dn = _phase_table(t[sl], up.levels), _phase_table(t[sl], dn.levels)
                for k, (_, w_pp, w_pm, w_cc) in enumerate(group):
                    g_pp[k, sl] = _phase_sum(tab_up, w_pp, tab_up, imag=False)
                    g_pm[k, sl] = _phase_sum(tab_dn, w_pm, tab_dn, imag=False)
                    if w_cc is not None:
                        g_cc[k, sl] = scale * _phase_sum(tab_up, w_cc, tab_dn) * frame[sl]
                del tab_up, tab_dn
            tjs += [tj for tj, *_ in group]
            tms += [tm] * len(group)
            pp.append(g_pp)
            pm.append(g_pm)
            cc.append(g_cc)
            del group
        q_below = q_here

    pp, pm, cc = np.concatenate(pp), np.concatenate(pm), np.concatenate(cc)
    result = OracleResult(
        times=t,
        p_plus=np.add.reduce(pp, axis=0),
        p_minus=np.add.reduce(pm, axis=0),
        coh=np.add.reduce(cc, axis=0),
        params=params,
    )
    if resolve != "none":
        # canonical sector order: ascending two_j, then ascending two_m
        order = np.lexsort((tms, tjs)) if resolve == "jm" else np.arange(len(tms))
        result.sector_two_j = None if resolve == "m" else np.asarray(tjs, dtype=np.int64)[order]
        result.sector_two_m = np.asarray(tms, dtype=np.int64)[order]
        result.sector_p_plus = pp[order]
        result.sector_p_minus = pm[order]
        result.sector_coh = cc[order]
    return result


# ---------------------------------------------------------------------------
# dense full-space route (cross-checks and projection diagnostics)
# ---------------------------------------------------------------------------


def build_hamiltonian(params: SystemParams, couplings=None) -> np.ndarray:
    """Dense Hamiltonian on the full 2^(N+1) space (basis index = c*2^N + bath).

    H = (omega0/2) s3 + sum_k A_k s . s^(k) in the sigma-matrix normalization
    used throughout: a diagonal Zeeman-like part sum_k A_k s3 z_k plus the
    flip-flop part 2 sum_k A_k (s+ s-^(k) + s- s+^(k)).  ``couplings`` gives
    per-spin A_k; default is the uniform params.A.  Postconditions (symmetry,
    J_3^tot conservation) are asserted.  Memory grows as 4^(N+1); meant for
    diagnostics and small-N cross-checks, not production propagation.
    """
    _require_capacity(params.N, MAX_DENSE_BATH_SPINS, "the dense Hamiltonian")
    N, w0 = params.N, params.omega0
    a_k = _check_couplings(N, couplings)
    if a_k is None:
        a_k = np.full(N, params.A)
    d = 1 << N
    zsum = _zeeman_sums(N, a_k)
    diag = np.concatenate([0.5 * w0 + zsum, -0.5 * w0 - zsum])
    h = np.diag(diag.astype(float))
    # flip-flop: <+, n|H|-, n'> = 2 A_k when n = n' with up spin k flipped down
    # (raising the central spin lowers the bath and vice versa)
    for n_up in range(d):
        for k in range(N):
            if not (n_up >> k) & 1:  # bit k up in n_up
                n_down = n_up | (1 << k)
                h[n_down, d + n_up] += 2.0 * a_k[k]
                h[d + n_up, n_down] += 2.0 * a_k[k]
    if not np.allclose(h, h.T):
        raise AssertionError("Hamiltonian construction is not symmetric")
    two_m = _bath_two_m(N)
    j3tot = np.concatenate([0.5 + 0.5 * two_m, -0.5 + 0.5 * two_m])
    if np.max(np.abs(h * (j3tot[:, None] - j3tot[None, :]))) > 1e-12:
        raise AssertionError("Hamiltonian does not conserve J_3^tot")
    return h


def _reduce_density(rho: np.ndarray, N: int) -> np.ndarray:
    d = 1 << N
    r = rho.reshape(2, d, 2, d)
    return np.einsum("anbn->ab", r)


def _propagate_ode(params: SystemParams, t: np.ndarray, opts) -> OracleResult:
    _require_capacity(params.N, MAX_DENSE_BATH_SPINS, "the ODE oracle")
    if abs(t[0]) > 1e-14:
        raise ValueError("the ODE oracle needs the grid to start at t = 0")
    N = params.N
    h = build_hamiltonian(params)
    rho0 = np.kron(params.rho_s0, np.eye(1 << N) / (1 << N))

    def rhs(_, rho):
        return -1j * (h @ rho - rho @ h)

    rhos = integrate_linear_ode(rho0, rhs, t, opts or SolveOptions(step=0.01))
    reduced = np.array([_reduce_density(r, N) for r in rhos])
    frame = np.exp(1j * params.omega0 * t)
    return OracleResult(
        times=t,
        p_plus=reduced[:, 0, 0].real,
        p_minus=reduced[:, 1, 1].real,
        coh=reduced[:, 0, 1] * frame,
        params=params,
    )


# ---------------------------------------------------------------------------
# projection-operator diagnostics
# ---------------------------------------------------------------------------


def _family_blocks(
    N: int, family: str, corrupt_normalization: bool = False, product_bath: str = "mixed",
) -> tuple[int, list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """The projection P rho = sum_i tr_E{B_i rho} (x) A_i as its bath J_3 sector blocks.

    Returns (n_pairs, blocks) with one (S, touched, A, B) per sector S:
    ``touched`` indexes the pairs with weight in S, and A, B stack their
    blocks A_i[S, S], B_i[S, S].  Families: "m" (bath J_3 eigenprojectors),
    "jm" (joint (J^2, J_3) eigenprojectors), "product" (a single pair whose
    bath reference state is maximally mixed, or the all-up pure state for
    ``product_bath="polarized"``; it touches every sector).
    ``corrupt_normalization`` skips the 1/tr(Pi_i) factor in A_i, a
    deliberately broken family used as a negative control.  Every family is
    block diagonal by construction.
    """
    if N < 1:
        raise ValueError(f"projection diagnostics need at least one bath spin, got N = {N}")
    if product_bath not in ("mixed", "polarized"):
        raise ValueError(f"unknown product_bath {product_bath!r}")
    if family not in ("m", "jm", "product"):
        raise ValueError(f"unknown projection family {family!r}")
    states = _sector_states(N)
    if family == "product":  # one pair, touching every sector
        blocks = []
        for tm, s in states.items():
            if product_bath == "polarized":
                a = np.eye(s.size) * (tm == N)  # all bath spins up
            else:
                a = np.eye(s.size) if corrupt_normalization else np.eye(s.size) / (1 << N)
            blocks.append((s, np.zeros(1, dtype=np.int64), a[None], np.eye(s.size)[None]))
        return 1, blocks
    blocks, n_pairs = [], 0
    for tm, s in states.items():
        # orthonormal bases of the family's subspaces of the sector, Pi_i = X X^dagger
        xjs = ([np.eye(s.size)] if family == "m" else
               [xj for _, xj in sorted(_j2_eigenblocks(N, tm, states).items())])
        pis = [xj @ xj.conj().T for xj in xjs]
        a = [pi if corrupt_normalization else pi / xj.shape[1] for pi, xj in zip(pis, xjs)]
        blocks.append((s, np.arange(n_pairs, n_pairs + len(pis)), np.stack(a), np.stack(pis)))
        n_pairs += len(pis)
    return n_pairs, blocks


def _project(blocks, n_pairs: int, x_blocks, adjoint: bool = False) -> list[np.ndarray]:
    """Apply P (or its Hilbert-Schmidt adjoint) to the sector-diagonal blocks of an operator.

    ``x_blocks[S]`` is x[rows, rows], rows = (S, 2^N + S), with any leading
    axes.  P reads only these blocks and returns an operator made of them;
    a pair's partial traces are summed over all its sectors before the (x) A_i.
    """
    lead = x_blocks[0].shape[:-2]
    c = np.zeros(lead + (2, 2, n_pairs), dtype=np.result_type(*x_blocks))
    for (s, idx, a, b), x in zip(blocks, x_blocks):
        # tr_E{(I (x) left_i) x}[a, b] = sum_{n,k} left_i[n,k] x[(a,k),(b,n)]
        x = x.reshape(lead + (2, s.size, 2, s.size))
        c[..., idx] += np.tensordot(x, a if adjoint else b, ([-3, -1], [2, 1]))
    return [np.tensordot(c[..., idx], b if adjoint else a, (-1, 0)).swapaxes(-3, -2)
            .reshape(lead + (2 * s.size, 2 * s.size)) for s, idx, a, b in blocks]


def _min_choi_eigenvalue(blocks) -> float:
    """Smallest eigenvalue of the Choi matrix sum_i B_i^T (x) A_i, from ``_family_blocks``.

    The Choi matrix is block diagonal over sector pairs (S_x, S_y), with the
    block sum_i B_i[S_x, S_x]^T (x) A_i[S_y, S_y] of size |S_x| |S_y|; all
    blocks carry the 4^N eigenvalues between them.  A block that no pair has
    weight in is exactly zero and adds an exact 0 without a diagonalization.
    """
    lowest = np.inf
    for _, tx, _, bx in blocks:
        for _, ty, ay, _ in blocks:
            _, ix, iy = np.intersect1d(tx, ty, assume_unique=True, return_indices=True)
            # kron(B^T, A)[(p, q), (r, s)] = B[r, p] A[q, s], summed over the pairs
            block = np.tensordot(bx[ix], ay[iy], axes=(0, 0)).transpose(1, 2, 0, 3)
            n = bx.shape[1] * ay.shape[1]
            eig = np.linalg.eigvalsh(block.reshape(n, n))[0] if np.any(block) else 0.0
            lowest = min(lowest, eig)
    return float(lowest)


@dataclass
class ProjectionConditionReport:
    """Numerical residuals of the projection consistency conditions.

    Each is computed on the bath J_3 sector blocks of the family, never on a
    dense matrix.  ``idempotency_defect``: max |tr(B_i A_j) - delta_ij|.
    ``trace_defect``: max-norm of sum_i tr(A_i) B_i - I.
    ``min_choi_eigenvalue``: smallest eigenvalue of the Choi matrix
    sum_i B_i^T (x) A_i (non-negative iff the projection is completely
    positive), over its sector-pair blocks (S_x, S_y) of at most
    C(N, N/2)^2 = 400 states at N = 6; 42 of the 49 are zero under "jm".
    ``j3_invariance_defect``: max-norm of P^dagger(J_3^tot) - J_3^tot.
    ``j2_invariance_defect``: same for the bath J^2 (expected zero only for
    the jm family).
    """

    family: str
    idempotency_defect: float
    trace_defect: float
    min_choi_eigenvalue: float
    j3_invariance_defect: float
    j2_invariance_defect: float


def check_projection_conditions(
    N: int, family: str, corrupt_normalization: bool = False
) -> ProjectionConditionReport:
    """Verify the defining conditions of a projection family numerically."""
    if N > 6:
        raise CapacityError(
            "projection condition checks diagonalize the Choi matrix in bath J_3 "
            "sector-pair blocks of up to C(N, N/2)^2 states; N <= 6 only"
        )
    n_pairs, blocks = _family_blocks(N, family, corrupt_normalization)

    gram, tr_a = np.zeros((n_pairs, n_pairs)), np.zeros(n_pairs)  # tr(B_p A_q), tr(A_p)
    for _, idx, a, b in blocks:
        gram[np.ix_(idx, idx)] += np.einsum("pkl,qlk->pq", b, a)
        tr_a[idx] += np.trace(a, axis1=1, axis2=2)

    def defect(xs, ys) -> float:
        # every operator compared here vanishes outside the sector blocks
        return max(float(np.max(np.abs(x - y))) for x, y in zip(xs, ys))

    states = _sector_states(N)
    j3tot = [np.kron(np.diag([0.5 + 0.5 * tm, -0.5 + 0.5 * tm]), np.eye(s.size))
             for tm, s in states.items()]
    j2_full = [np.kron(np.eye(2), _j2_sector(N, tm, states)) for tm in states]
    return ProjectionConditionReport(
        family=family,
        idempotency_defect=float(np.max(np.abs(gram - np.eye(n_pairs)))),
        trace_defect=defect([np.tensordot(tr_a[idx], b, 1) for _, idx, _, b in blocks],
                            [np.eye(s.size) for s in states.values()]),
        min_choi_eigenvalue=_min_choi_eigenvalue(blocks),
        j3_invariance_defect=defect(_project(blocks, n_pairs, j3tot, adjoint=True), j3tot),
        j2_invariance_defect=defect(_project(blocks, n_pairs, j2_full, adjoint=True), j2_full),
    )


#: interaction-picture times and random-operator seed of check_plp_zero
_PLP_TIMES = (0.0, 0.3, 1.1, 2.7, 6.5)
_PLP_SEED = 7041


def check_plp_zero(
    params: SystemParams,
    family: str = "m",
    interaction: str = "flip_flop",
    product_bath: str = "mixed",
    n_samples: int = 10,
) -> float:
    """Max-norm residual of P L(t) P over random operators and sampled times.

    L(t) X = -i [H_I(t), X] with H_I in the interaction picture of the
    diagonal H_0 (cheap phase conjugation).  ``interaction="flip_flop"``
    treats only the excitation-exchange part as the perturbation, absorbing
    the diagonal sum_k A_k s3 z_k into H_0; this is the split under which the
    first-order term vanishes for the correlated families.
    ``interaction="full"`` keeps the diagonal part in the perturbation
    (negative control together with ``family="product"``,
    ``product_bath="polarized"``).

    P X has weight only in the bath J_3 sector-diagonal blocks, and P reads
    only those, so only those blocks of each commutator are formed, stacked
    over the times.  There H_I is diagonal, because its flip-flop part moves
    the bath J_3 by one.  Under ``"flip_flop"`` H_I is that part alone, so
    these blocks are zero and the residual is exactly 0.0 for every family,
    whatever its normalization.  The random operators are drawn one at a time
    as two dense real arrays, of which only the sector blocks are used.
    """
    _require_capacity(params.N, MAX_DENSE_BATH_SPINS, "the PLP diagnostic")
    if interaction not in ("flip_flop", "full"):
        raise ValueError(f"unknown interaction {interaction!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    N, d = params.N, 1 << params.N
    n_pairs, blocks = _family_blocks(N, family, product_bath=product_bath)

    # the diagonals of H and of H_0, which absorbs H's diagonal bath part under the flip-flop split
    zsum = _zeeman_sums(N, np.full(N, params.A))
    h_diag, h0_diag = (np.concatenate([0.5 * params.omega0 + z, -0.5 * params.omega0 - z])
                       for z in (zsum, zsum if interaction == "flip_flop" else np.zeros(d)))

    # the sector blocks of H_I(t) = e^{i H_0 t} H_I e^{-i H_0 t}, stacked over the times
    rows = [np.concatenate([s, d + s]) for s, *_ in blocks]
    h_ts = []
    for r in rows:
        ph = np.array([np.exp(1j * h0_diag[r] * t) for t in _PLP_TIMES])
        h_ts.append((ph[:, :, None] * np.diag(h_diag[r] - h0_diag[r])) * ph.conj()[:, None, :])

    rng = np.random.default_rng(_PLP_SEED)
    worst = 0.0
    for _ in range(n_samples):
        re, im = rng.standard_normal((2 * d, 2 * d)), rng.standard_normal((2 * d, 2 * d))
        g = [re[np.ix_(r, r)] + 1j * im[np.ix_(r, r)] for r in rows]
        del re, im  # freed before the next draws
        # Hermitian, like a (unnormalized) state
        px = _project(blocks, n_pairs, [0.5 * (x + x.conj().T) for x in g])
        lr = [-1j * (h_t @ p - p @ h_t) for h_t, p in zip(h_ts, px)]
        worst = max([worst] + [float(np.max(np.abs(y))) for y in _project(blocks, n_pairs, lr)])
    return worst

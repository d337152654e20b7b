"""Independent numerically exact reference for the spin-star dynamics.

The full Hamiltonian conserves J_3^tot, so the Hilbert space splits into
blocks pairing the bath sector m on the |+> side with the sector m+1 on the
|-> side.  Each block is diagonalized once (``numpy.linalg.eigh``); reduced
populations and coherences then follow from phase sums over the block
spectra, with no time stepping and no truncation.  An RK4 route on the full
von Neumann equation is kept as a slow cross-check at small N.

Conventions match the rest of the package: bath qubit k sits at bit k of the
basis index, bit value 0 means spin up, and the reported coherence is in the
rotating frame of the central spin (multiply by e^{i omega0 t}).

This module is deliberately independent of the closed-form solution: it
never touches the (j, m) weight combinatorics and obtains sector resolution
from explicit projectors instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "projection_family",
    "check_projection_conditions",
    "ProjectionConditionReport",
    "check_plp_zero",
]

#: hard cap for the blockwise spectral route (largest block ~6.4k states);
#: 1001 times on one BLAS thread take 14 s at N = 12, 448 s and 4.5 GB at N = 14
MAX_BATH_SPINS = 14
#: cap for the diagnostics that build full 2^(N+1)-dimensional matrices
MAX_DENSE_BATH_SPINS = 8


def _check_couplings(N: int, couplings) -> np.ndarray | None:
    if couplings is None:
        return None
    c = np.asarray(couplings, dtype=float)
    if c.shape != (N,) or not np.all(np.isfinite(c)):
        raise ValueError(f"couplings must be a finite array of length N = {N}")
    return c


class CapacityError(ValueError):
    """Requested bath size exceeds what the dense reference can handle."""


def _require_capacity(N: int, limit: int, what: str) -> None:
    if N > limit:
        raise CapacityError(f"{what} supports at most N = {limit} bath spins, got {N}")


def _popcounts(N: int) -> np.ndarray:
    n = np.arange(1 << N, dtype=np.int64)
    counts = np.zeros_like(n)
    for k in range(N):
        counts += (n >> k) & 1
    return counts


def _sector_states(N: int) -> dict[int, np.ndarray]:
    """Bath basis states (integers, ascending) grouped by two_m = N - 2*popcount."""
    two_m = N - 2 * _popcounts(N)
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

    two_m_up: int
    energies: np.ndarray
    v_up: np.ndarray  # (dim_up, D) eigenvector components on the |+> rows
    v_dn: np.ndarray  # (dim_dn, D) components on the |-> rows


def _zeeman_sums(N: int, couplings: np.ndarray) -> np.ndarray:
    """sum_k A_k * (+-1) over the spin orientations of every bath state."""
    out = np.full(1 << N, np.sum(couplings))
    n = np.arange(1 << N, dtype=np.int64)
    for k in range(N):
        out -= 2.0 * couplings[k] * ((n >> k) & 1)
    return out


def _build_blocks(params: SystemParams, couplings=None) -> dict[int, _Block]:
    N, A, w0 = params.N, params.A, params.omega0
    states = _sector_states(N)
    zsum = None if couplings is None else _zeeman_sums(N, couplings)
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
            h[idx, idx] = 0.5 * w0 + (A * b if zsum is None else zsum[states[b]])
        if n_dn:
            idx = np.arange(n_up, dim)
            h[idx, idx] = -0.5 * w0 - (
                A * (b + 2) if zsum is None else zsum[states[b + 2]]
            )
        if n_up and n_dn:
            if couplings is None:
                c = 2.0 * A * _jplus_block(states[b], states[b + 2]).T
            else:
                c = 2.0 * _jplus_block(states[b], states[b + 2], couplings).T
            h[:n_up, n_up:] = c
            h[n_up:, :n_up] = c.T
        energies, u = np.linalg.eigh(h)
        blocks[b] = _Block(
            two_m_up=b, energies=energies, v_up=u[:n_up, :], v_dn=u[n_up:, :]
        )
    return blocks


def _phase_sum(times, e_left, w, e_right) -> np.ndarray:
    """sum_{kl} e^{-i E^L_k t} W[k,l] e^{+i E^R_l t}, chunked over times."""
    out = np.empty(times.size, dtype=complex)
    for sl in _time_chunks(times.size, 16 * max(e_left.size, e_right.size)):
        ph_l = np.exp(-1j * np.multiply.outer(times[sl], e_left))
        ph_r = np.exp(1j * np.multiply.outer(times[sl], e_right))
        out[sl] = np.add.reduce((ph_l @ w) * ph_r, axis=1)
    return out


def _block_weights(blk: _Block, w_up: float, w_dn: float):
    """(initial weights, Q_up, Q_dn) of a block in its eigenbasis, Q = V^H V per half."""
    q_up = blk.v_up.conj().T @ blk.v_up
    q_dn = blk.v_dn.conj().T @ blk.v_dn
    return w_up * q_up + w_dn * q_dn, q_up, q_dn


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
    as 2^N separate pure-state propagations.
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
    below = _block_weights(blocks[-N - 2], w_up, w_dn)
    for tm in range(-N, N + 1, 2):
        # bath sector tm sits on the |+> rows of block tm and the |-> rows of block tm - 2
        up, dn = blocks[tm], blocks[tm - 2]
        here = _block_weights(up, w_up, w_dn)
        (wm_up, q_sec_up, _), (wm_dn, _, q_sec_dn) = here, below
        x = up.v_up.conj().T @ dn.v_dn
        if resolve == "jm":
            projectors = sorted(_j2_eigenblocks(N, tm, states).items())
        else:
            projectors = [(None, None)]
        for tj, xj in projectors:
            if xj is None:  # the whole sector
                q_up, q_dn, z = q_sec_up, q_sec_dn, x
            else:
                y_up, y_dn = xj.conj().T @ up.v_up, xj.conj().T @ dn.v_dn
                q_up, q_dn, z = y_up.conj().T @ y_up, y_dn.conj().T @ y_dn, y_up.conj().T @ y_dn
            tjs.append(tj)
            tms.append(tm)
            pp.append(_phase_sum(t, up.energies, wm_up * q_up.conj(), up.energies).real)
            pm.append(_phase_sum(t, dn.energies, wm_dn * q_dn.conj(), dn.energies).real)
            if coh0 != 0.0:
                cc.append(scale * _phase_sum(t, up.energies, x * z.conj(), dn.energies) * frame)
            else:
                cc.append(np.zeros(t.size, dtype=complex))
        below = here

    pp, pm, cc = np.asarray(pp), np.asarray(pm), np.asarray(cc)
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
    two_m = N - 2 * _popcounts(N)
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


def projection_family(
    N: int, family: str, corrupt_normalization: bool = False,
    product_bath: str = "mixed",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (A_i, B_i) pairs of the projection P rho = sum_i tr_E{B_i rho} (x) A_i.

    Families: "m" (bath J_3 eigenprojectors), "jm" (joint (J^2, J_3)
    eigenprojectors), "product" (single pair whose bath reference state is
    maximally mixed, or the all-up pure state for
    ``product_bath="polarized"``).  ``corrupt_normalization`` skips the
    1/tr(Pi_i) factor in A_i, a deliberately broken family used as a
    negative control.
    """
    _require_capacity(N, MAX_DENSE_BATH_SPINS, "projection diagnostics")
    d = 1 << N
    states = _sector_states(N)
    pairs = []
    if family == "product":
        if product_bath == "mixed":
            a = np.eye(d) if corrupt_normalization else np.eye(d) / d
        elif product_bath == "polarized":
            a = np.zeros((d, d))
            a[0, 0] = 1.0  # all bath spins up
        else:
            raise ValueError(f"unknown product_bath {product_bath!r}")
        return [(a, np.eye(d))]
    if family == "m":
        for tm in range(-N, N + 1, 2):
            pi = np.zeros((d, d))
            pi[states[tm], states[tm]] = 1.0
            a = pi if corrupt_normalization else pi / states[tm].size
            pairs.append((a, pi))
        return pairs
    if family == "jm":
        for tm in range(-N, N + 1, 2):
            rows = states[tm]
            for tj, xj in sorted(_j2_eigenblocks(N, tm, states).items()):
                pi = np.zeros((d, d))
                pi[np.ix_(rows, rows)] = xj @ xj.conj().T
                a = pi if corrupt_normalization else pi / xj.shape[1]
                pairs.append((a, pi))
        return pairs
    raise ValueError(f"unknown projection family {family!r}")


def _apply_projection(pairs, x: np.ndarray, N: int, adjoint: bool = False) -> np.ndarray:
    """Apply P (or its Hilbert-Schmidt adjoint) to a full-space operator."""
    d = 1 << N
    xr = x.reshape(2, d, 2, d)
    out = np.zeros((2, d, 2, d), dtype=complex)
    for a_i, b_i in pairs:
        left, right = (a_i, b_i) if adjoint else (b_i, a_i)
        # tr_E{(I (x) left) x}[a, b] = sum_{n,k} left[n,k] x[(a,k),(b,n)]
        sys_part = np.einsum("nk,akbn->ab", left, xr)
        out += np.einsum("ab,nm->anbm", sys_part, right.astype(complex))
    return out.reshape(2 * d, 2 * d)


def _min_choi_eigenvalue(pairs, N: int) -> float:
    """Smallest eigenvalue of the Choi matrix sum_i B_i^T (x) A_i, block by block.

    Asserts that no A_i or B_i has weight outside the bath J_3 sector blocks.
    The Choi matrix is then block diagonal over sector pairs (S_x, S_y), with
    the block sum_i B_i[S_x, S_x]^T (x) A_i[S_y, S_y] of size |S_x| |S_y|.
    All blocks, zero blocks included, carry the 4^N eigenvalues between them.
    """
    sectors = _sector_states(N).values()
    two_m = N - 2 * _popcounts(N)
    outside = two_m[:, None] != two_m[None, :]
    if any(np.any(a_i[outside]) or np.any(b_i[outside]) for a_i, b_i in pairs):
        raise AssertionError("projection family is not block diagonal in the bath J_3 sectors")
    a_blocks = [np.stack([a_i[np.ix_(s, s)] for a_i, _ in pairs]) for s in sectors]
    b_blocks = [np.stack([b_i[np.ix_(s, s)] for _, b_i in pairs]) for s in sectors]
    lowest = np.inf
    for bx in b_blocks:
        for ay in a_blocks:
            # kron(B^T, A)[(p, q), (r, s)] = B[r, p] A[q, s], summed over the pairs
            block = np.tensordot(bx, ay, axes=(0, 0)).transpose(1, 2, 0, 3)
            n = bx.shape[1] * ay.shape[1]
            lowest = min(lowest, np.linalg.eigvalsh(block.reshape(n, n))[0])
    return float(lowest)


@dataclass
class ProjectionConditionReport:
    """Numerical residuals of the projection consistency conditions.

    ``idempotency_defect``: max |tr(B_i A_j) - delta_ij|.
    ``trace_defect``: max-norm of sum_i tr(A_i) B_i - I.
    ``min_choi_eigenvalue``: smallest eigenvalue of the Choi matrix
    sum_i B_i^T (x) A_i (non-negative iff the projection is completely
    positive).  Every A_i and B_i is block diagonal in the bath J_3 sectors,
    so the Choi matrix is block diagonal over sector pairs (S_x, S_y) and the
    minimum is taken over the spectra of those blocks (at most
    C(N, N/2)^2 = 400 states each at N = 6).
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
    pairs = projection_family(N, family, corrupt_normalization)
    d = 1 << N

    n_pairs = len(pairs)
    gram = np.empty((n_pairs, n_pairs))
    for i, (_, b_i) in enumerate(pairs):
        for j, (a_j, _) in enumerate(pairs):
            gram[i, j] = np.trace(b_i @ a_j).real
    idem = float(np.max(np.abs(gram - np.eye(n_pairs))))

    resolution = sum(np.trace(a_i).real * b_i for a_i, b_i in pairs)
    trace_defect = float(np.max(np.abs(resolution - np.eye(d))))

    min_eig = _min_choi_eigenvalue(pairs, N)

    states = _sector_states(N)
    two_m = N - 2 * _popcounts(N)
    j3tot = np.diag(np.concatenate([0.5 + 0.5 * two_m, -0.5 + 0.5 * two_m]))
    j3_defect = float(
        np.max(np.abs(_apply_projection(pairs, j3tot, N, adjoint=True) - j3tot))
    )

    j2_bath = np.zeros((d, d))
    for tm in range(-N, N + 1, 2):
        rows = states[tm]
        j2_bath[np.ix_(rows, rows)] = _j2_sector(N, tm, states)
    j2_full = np.kron(np.eye(2), j2_bath)
    j2_defect = float(
        np.max(np.abs(_apply_projection(pairs, j2_full, N, adjoint=True) - j2_full))
    )

    return ProjectionConditionReport(
        family=family,
        idempotency_defect=idem,
        trace_defect=trace_defect,
        min_choi_eigenvalue=min_eig,
        j3_invariance_defect=j3_defect,
        j2_invariance_defect=j2_defect,
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
    """
    _require_capacity(params.N, MAX_DENSE_BATH_SPINS, "the PLP diagnostic")
    if interaction not in ("flip_flop", "full"):
        raise ValueError(f"unknown interaction {interaction!r}")
    N = params.N
    d = 1 << N
    pairs = projection_family(N, family, product_bath=product_bath)

    h_full = build_hamiltonian(params)
    zsum = _zeeman_sums(N, np.full(N, params.A))
    if interaction == "flip_flop":
        h0_diag = np.concatenate(
            [0.5 * params.omega0 + zsum, -0.5 * params.omega0 - zsum]
        )
    else:
        h0_diag = np.concatenate(
            [np.full(d, 0.5 * params.omega0), np.full(d, -0.5 * params.omega0)]
        )
    h_int = h_full - np.diag(h0_diag)

    rng = np.random.default_rng(_PLP_SEED)
    dim = 2 * d
    samples = []
    for _ in range(n_samples):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = 0.5 * (g + g.conj().T)  # Hermitian, like a (unnormalized) state
        samples.append(g)

    worst = 0.0
    for x in samples:
        px = _apply_projection(pairs, x, N)
        for t in _PLP_TIMES:
            ph = np.exp(1j * h0_diag * t)
            h_t = (ph[:, None] * h_int) * ph.conj()[None, :]
            lr = -1j * (h_t @ px - px @ h_t)
            worst = max(worst, float(np.max(np.abs(_apply_projection(pairs, lr, N)))))
    return worst

import ast
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spinstar.oracle
import spinstar.trajectory

from spinstar.exact import exact_trajectory
from spinstar.oracle import (
    MAX_BATH_SPINS,
    MAX_DENSE_BATH_SPINS,
    CapacityError,
    _LEVEL_EPS,
    _build_blocks,
    _family_blocks,
    _fold,
    _j2_eigenblocks,
    _levels,
    _min_choi_eigenvalue,
    _phase_sum,
    _phase_table,
    _project,
    _sector_states,
    build_hamiltonian,
    check_plp_zero,
    check_projection_conditions,
    propagate,
)
from spinstar.sectors import SystemParams
from spinstar.trajectory import _time_chunks


def mixed_bath_state(params):
    d = 1 << params.N
    return np.kron(params.rho_s0, np.eye(d) / d)


def reduce_central(rho, N):
    d = 1 << N
    return np.einsum("anbn->ab", rho.reshape(2, d, 2, d))


def spectral_evolution(h, rho0, t_grid):
    evals, vecs = np.linalg.eigh(h)
    r0 = vecs.conj().T @ rho0 @ vecs
    out = []
    for t in t_grid:
        ph = np.exp(-1j * evals * t)
        out.append(vecs @ ((ph[:, None] * r0) * ph.conj()[None, :]) @ vecs.conj().T)
    return out


class TestHamiltonian:
    def test_single_pair_exchange_spectrum(self):
        # remove the free splitting: what is left is A s.s with the singlet
        # at -3A and the triplet at +A
        p = SystemParams(N=1, A=1.0, omega0=2.0)
        h = build_hamiltonian(p)
        free = np.diag([1.0, 1.0, -1.0, -1.0])  # (omega0/2) s3 on the central spin
        evals = np.linalg.eigvalsh(h - free)
        np.testing.assert_allclose(np.sort(evals), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_free_hamiltonian_is_diagonal(self):
        p = SystemParams(N=2, A=0.0, omega0=2.0)
        h = build_hamiltonian(p)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        np.testing.assert_array_equal(np.sort(np.unique(np.diag(h))), [-1.0, 1.0])

    def test_hermitian_and_couplings_validation(self):
        p = SystemParams(N=3, A=0.2, omega0=1.0)
        h = build_hamiltonian(p, couplings=[0.1, 0.2, 0.3])
        np.testing.assert_array_equal(h, h.T)
        with pytest.raises(ValueError, match="length N"):
            build_hamiltonian(p, couplings=[0.1, 0.2])

    @pytest.mark.parametrize(
        "couplings,fragment",
        [([0.1, 0.2], r"length N \(expected N = 3 values, got shape \(2,\)\)"),
         ([0.1, np.nan, 0.3], "couplings must be finite, got nan at position 1")],
        ids=["length", "non-finite"],
    )
    def test_couplings_messages_through_propagate(self, couplings, fragment):
        p = SystemParams(N=3, A=0.2, omega0=1.0)
        with pytest.raises(ValueError, match=fragment):
            propagate(p, [0.0, 1.0], couplings=couplings)

    def test_uniform_couplings_match_scalar_coupling(self):
        p = SystemParams(N=3, A=0.2, omega0=1.0)
        np.testing.assert_array_equal(
            build_hamiltonian(p), build_hamiltonian(p, couplings=[0.2] * 3)
        )

    def test_capacity_guard(self):
        # the dense 2^(N+1) matrix is capped like every other dense route
        with pytest.raises(CapacityError):
            build_hamiltonian(SystemParams(N=MAX_DENSE_BATH_SPINS + 1, A=0.1, omega0=1.0))


class TestPropagation:
    def test_ode_route_matches_spectral_route(self):
        p = SystemParams(
            N=3, A=0.15, omega0=1.1, initial_p_plus=0.6, initial_coh=0.3 + 0.1j
        )
        t = np.linspace(0.0, 8.0, 41)
        spec = propagate(p, t)
        ode = propagate(p, t, method="ode")
        np.testing.assert_allclose(spec.p_plus, ode.p_plus, rtol=0, atol=1e-8)
        np.testing.assert_allclose(spec.coh, ode.coh, rtol=0, atol=1e-8)

    def test_nonuniform_couplings_against_dense_diagonalization(self):
        p = SystemParams(
            N=3, A=0.0, omega0=0.9, initial_p_plus=0.7, initial_coh=0.2 - 0.1j
        )
        couplings = [0.11, -0.07, 0.23]
        t = np.linspace(0.0, 12.0, 61)
        res = propagate(p, t, couplings=couplings)
        h = build_hamiltonian(p, couplings=couplings)
        frame = np.exp(1j * p.omega0 * t)
        rhos = spectral_evolution(h, mixed_bath_state(p), t)
        reduced = np.array([reduce_central(r, p.N) for r in rhos])
        np.testing.assert_allclose(res.p_plus, reduced[:, 0, 0].real, atol=1e-12)
        np.testing.assert_allclose(res.coh, reduced[:, 0, 1] * frame, atol=1e-12)

    def test_initial_conditions_and_trace(self):
        p = SystemParams(
            N=5, A=0.2, omega0=1.0, initial_p_plus=0.8, initial_coh=0.1 + 0.2j
        )
        t = np.linspace(0.0, 20.0, 201)
        res = propagate(p, t)
        np.testing.assert_allclose(res.p_plus[0], 0.8, atol=1e-13)
        np.testing.assert_allclose(res.coh[0], 0.1 + 0.2j, atol=1e-13)
        np.testing.assert_allclose(res.p_plus + res.p_minus, 1.0, atol=1e-12)

    def test_agrees_with_the_closed_form_at_ten_spins(self):
        # both routes are exact, so only rounding separates them.  eigh's eigenvalues carry
        # errors of a few eps |E|max (merged levels span up to 18.5 eps |E|max up to N = 12);
        # with |E|max = 1.64 that moves a phase at t = 100 by about 7e-13 at most.
        # Measured: 4e-15.
        p = SystemParams(N=10, A=0.1, omega0=1.0, initial_p_plus=0.7, initial_coh=0.3 - 0.1j)
        t = np.linspace(0.0, 100.0, 1001)
        res, ref = propagate(p, t), exact_trajectory(p, t)
        for name in ("p_plus", "p_minus", "coh"):
            np.testing.assert_allclose(getattr(res, name), getattr(ref, name), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("resolve", ["m", "jm"])
    def test_sector_resolution_sums_to_totals(self, resolve):
        p = SystemParams(
            N=4, A=0.18, omega0=1.0, initial_p_plus=0.65, initial_coh=0.3 - 0.2j
        )
        t = np.linspace(0.0, 15.0, 76)
        res = propagate(p, t, resolve=resolve)
        np.testing.assert_allclose(
            np.sum(res.sector_p_plus, axis=0), res.p_plus, atol=1e-12
        )
        np.testing.assert_allclose(
            np.sum(res.sector_p_minus, axis=0), res.p_minus, atol=1e-12
        )
        np.testing.assert_allclose(np.sum(res.sector_coh, axis=0), res.coh, atol=1e-12)

    def test_jm_sectors_refine_m_sectors(self):
        p = SystemParams(N=4, A=0.18, omega0=1.0, initial_p_plus=0.65)
        t = np.linspace(0.0, 15.0, 31)
        res_m = propagate(p, t, resolve="m")
        res_jm = propagate(p, t, resolve="jm")
        res = propagate(p, t)
        for name in ("p_plus", "p_minus", "coh"):  # jm totals are sums over the jm sectors
            np.testing.assert_allclose(
                getattr(res_jm, name), getattr(res, name), rtol=0, atol=1e-13
            )
        for i, tm in enumerate(res_m.sector_two_m):
            rows = res_jm.sector_two_m == tm
            np.testing.assert_allclose(
                np.sum(res_jm.sector_p_plus[rows], axis=0),
                res_m.sector_p_plus[i],
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "resolve, couplings",
        [("none", None), ("m", None), ("jm", None), ("jm", [0.11, -0.07, 0.23, 0.18])],
        ids=["none", "m", "jm", "jm-nonuniform"],
    )
    def test_time_chunks_do_not_change_the_result(self, monkeypatch, resolve, couplings):
        p = SystemParams(
            N=4, A=0.18, omega0=1.0, initial_p_plus=0.65, initial_coh=0.3 - 0.2j
        )
        t = np.linspace(0.0, 15.0, 60)
        whole = propagate(p, t, resolve=resolve, couplings=couplings)
        monkeypatch.setattr(spinstar.trajectory, "_CHUNK_BYTES", 16 * 10 * 7)
        # at most 5 levels per block (10 with the couplings, which repeat no level):
        # 4 times (2) per chunk and one projector per group
        calls = []

        def recorded(*args):
            calls.append(list(_time_chunks(*args)))
            return calls[-1]

        monkeypatch.setattr(spinstar.oracle, "_time_chunks", recorded)
        chunked = propagate(p, t, resolve=resolve, couplings=couplings)
        assert min(len(chunks) for chunks in calls) > 1
        # one call per projector group, and the 5 sectors of N = 4 make 9 projectors under jm
        assert len(calls) == (9 if resolve == "jm" else 5)
        names = ("p_plus", "p_minus", "coh")
        if resolve != "none":
            names += ("sector_p_plus", "sector_p_minus", "sector_coh")
        for name in names:
            np.testing.assert_allclose(
                getattr(chunked, name), getattr(whole, name), rtol=0, atol=1e-15
            )

    def test_zero_coherence_skips_only_the_coherence(self):
        t = np.linspace(0.0, 15.0, 60)
        coherent = propagate(
            SystemParams(N=4, A=0.18, omega0=1.0, initial_p_plus=0.65, initial_coh=0.3 - 0.2j),
            t, resolve="jm",
        )
        res = propagate(
            SystemParams(N=4, A=0.18, omega0=1.0, initial_p_plus=0.65, initial_coh=0.0),
            t, resolve="jm",
        )
        for name in ("p_plus", "p_minus", "sector_p_plus", "sector_p_minus"):
            np.testing.assert_array_equal(getattr(res, name), getattr(coherent, name))
        assert not np.any(res.coh) and not np.any(res.sector_coh)

    def test_trajectory_wrapper(self):
        p = SystemParams(N=2, A=0.1, omega0=1.0)
        traj = propagate(p, np.linspace(0.0, 5.0, 11)).trajectory()
        assert traj.method == "oracle"
        assert traj.trace_drift() <= 1e-12

    def test_capacity_and_argument_errors(self):
        p_big = SystemParams(N=MAX_BATH_SPINS + 1, A=0.1, omega0=1.0)
        with pytest.raises(CapacityError):
            propagate(p_big, np.array([0.0, 1.0]))
        p = SystemParams(N=2, A=0.1, omega0=1.0)
        with pytest.raises(ValueError):
            propagate(p, np.array([0.0, 1.0]), resolve="bogus")
        with pytest.raises(ValueError):
            propagate(p, np.array([0.0, 1.0]), method="bogus")
        with pytest.raises(ValueError):
            propagate(p, np.array([0.0, 1.0]), method="ode", resolve="m")
        p_mid = SystemParams(N=9, A=0.1, omega0=1.0)
        with pytest.raises(CapacityError):  # dense route is capped tighter
            propagate(p_mid, np.array([0.0, 1.0]), method="ode")


class TestRealPhaseSum:
    """The cos/sin phase sum against the direct double sum over both spectra."""

    @staticmethod
    def direct(t, e_left, w, e_right):
        return np.array([
            np.exp(-1j * e_left * s) @ w @ np.exp(1j * e_right * s) for s in t
        ])

    @staticmethod
    def chunked(t, e_left, w, e_right, imag=True):
        out = np.empty(t.size, dtype=complex if imag else float)
        chunks = list(spinstar.trajectory._time_chunks(t.size, 8 * max(e_left.size, e_right.size)))
        assert len(chunks) > 1
        for sl in chunks:
            out[sl] = _phase_sum(
                _phase_table(t[sl], e_left), w, _phase_table(t[sl], e_right), imag=imag
            )
        return out

    T = np.cumsum(np.random.default_rng(3).uniform(0.01, 0.7, 41))  # non-uniform grid

    def test_unsymmetric_weights_between_two_spectra(self, monkeypatch):
        rng = np.random.default_rng(11)
        e_left, e_right = rng.uniform(-2.0, 2.0, 7), rng.uniform(-2.0, 2.0, 5)
        w = rng.uniform(-1.0, 1.0, (7, 5)) / 7
        monkeypatch.setattr(spinstar.trajectory, "_CHUNK_BYTES", 8 * 7 * 6)  # 6 times per chunk
        np.testing.assert_allclose(
            self.chunked(self.T, e_left, w, e_right),
            self.direct(self.T, e_left, w, e_right), rtol=0, atol=1e-14,
        )

    def test_symmetric_weights_on_one_spectrum_are_real(self, monkeypatch):
        rng = np.random.default_rng(12)
        e = rng.uniform(-2.0, 2.0, 6)
        w = rng.uniform(-1.0, 1.0, (6, 6)) / 6
        w = w + w.T
        monkeypatch.setattr(spinstar.trajectory, "_CHUNK_BYTES", 8 * 6 * 5)  # 5 times per chunk
        ref = self.direct(self.T, e, w, e)
        np.testing.assert_allclose(ref.imag, 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            self.chunked(self.T, e, w, e, imag=False), ref.real, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(self.chunked(self.T, e, w, e), ref, rtol=0, atol=1e-14)


class TestLevels:
    """Phase sums over each block's distinct levels against the sums over its eigenvalues."""

    @staticmethod
    def blocks(N, A):
        return _build_blocks(SystemParams(N=N, A=A, omega0=1.0)).values()

    def test_uniform_star_levels(self):
        assert sum(b.levels.size for b in self.blocks(8, 0.1)) == 50  # of 512 eigenvalues
        # A = 0 leaves the Zeeman levels +-omega0/2; the two end blocks hold one state each
        assert [b.levels.size for b in self.blocks(8, 0.0)] == [1] + [2] * 8 + [1]

    @pytest.mark.parametrize("A", [0.1, 0.0, 1e-9, -0.3])
    def test_every_run_is_within_the_tolerance(self, A):
        for b in self.blocks(8, A):
            tol = _LEVEL_EPS * np.finfo(float).eps * max(1.0, np.max(np.abs(b.energies)))
            spread = (np.maximum.reduceat(b.energies, b.starts)
                      - np.minimum.reduceat(b.energies, b.starts))
            assert np.all(spread <= tol)
            assert np.all(np.diff(b.levels) > tol)

    def test_nonuniform_couplings_repeat_no_level(self):
        p = SystemParams(N=5, A=0.0, omega0=0.9, initial_p_plus=0.7, initial_coh=0.2 - 0.1j)
        couplings = np.random.default_rng(4).uniform(-0.3, 0.3, 5)
        blocks = _build_blocks(p, couplings)
        for b in blocks.values():
            np.testing.assert_array_equal(b.starts, np.arange(b.energies.size))
            np.testing.assert_array_equal(b.levels, b.energies)
        # the direct double sums over the full spectra, block by block
        t = TestRealPhaseSum.T
        w_up, w_dn = 0.7 / 32, 0.3 / 32
        p_plus, p_minus, coh = np.zeros((3, t.size), dtype=complex)
        for b in blocks.values():
            # P_+ = Q in the eigenbasis, P_- = I - Q, and the initial state is w_up Q + w_dn (I - Q)
            q = b.v_up.T @ b.v_up
            rho0 = w_up * q + w_dn * (np.eye(len(q)) - q)
            p_plus += TestRealPhaseSum.direct(t, b.energies, q * rho0, b.energies)
            p_minus += TestRealPhaseSum.direct(t, b.energies, (np.eye(len(q)) - q) * rho0,
                                               b.energies)
        for tm in range(-5, 6, 2):  # bath sector tm: |+> rows of block tm, |-> rows of tm - 2
            x = blocks[tm].v_up.T @ blocks[tm - 2].v_dn
            coh += TestRealPhaseSum.direct(t, blocks[tm].energies, x * x, blocks[tm - 2].energies)
        res = propagate(p, t, couplings=couplings)
        np.testing.assert_allclose(res.p_plus, p_plus.real, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.p_minus, p_minus.real, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.coh, (0.2 - 0.1j) / 32 * coh * np.exp(0.9j * t),
                                   rtol=0, atol=1e-14)

    def test_folded_sum_on_degenerate_spectra(self):
        rng = np.random.default_rng(13)
        # eigenvalues up to 2 eps apart within a level, as eigh leaves a degenerate level:
        # the merge moves a phase by at most eps t, under 3.2e-15 up to t = T[-1] = 14.2
        jitter = np.finfo(float).eps * rng.integers(-1, 2, 10)
        e_left = np.sort([-1.3] * 3 + [0.2] * 2 + [0.9] + [1.7] * 4 + jitter)
        e_right = np.sort([-0.4] * 2 + [0.6] * 3 + jitter[:5])
        for e_r in (e_left, e_right):
            w = rng.uniform(-1.0, 1.0, (e_left.size, e_r.size)) / e_left.size
            (s_l, lev_l), (s_r, lev_r) = _levels(e_left), _levels(e_r)
            assert (lev_l.size, lev_r.size) == (4, 4 if e_r is e_left else 2)
            got = _phase_sum(_phase_table(TestRealPhaseSum.T, lev_l), _fold(w, s_l, s_r),
                             _phase_table(TestRealPhaseSum.T, lev_r))
            np.testing.assert_allclose(got, TestRealPhaseSum.direct(TestRealPhaseSum.T, e_left,
                                                                     w, e_r), rtol=0, atol=1e-14)


def dense_projection_family(N, family, corrupt_normalization=False, product_bath="mixed"):
    """The (A_i, B_i) pairs of a projection family as dense 2^N x 2^N arrays (the reference)."""
    d = 1 << N
    states = _sector_states(N)
    pairs = []
    if family == "product":
        if product_bath == "mixed":
            a = np.eye(d) if corrupt_normalization else np.eye(d) / d
        else:
            a = np.zeros((d, d))
            a[0, 0] = 1.0  # all bath spins up
        return [(a, np.eye(d))]
    if family == "m":
        for tm in range(-N, N + 1, 2):
            pi = np.zeros((d, d))
            pi[states[tm], states[tm]] = 1.0
            a = pi if corrupt_normalization else pi / states[tm].size
            pairs.append((a, pi))
        return pairs
    assert family == "jm"
    for tm in range(-N, N + 1, 2):
        rows = states[tm]
        for tj, xj in sorted(_j2_eigenblocks(N, tm, states).items()):
            pi = np.zeros((d, d))
            pi[np.ix_(rows, rows)] = xj @ xj.conj().T
            a = pi if corrupt_normalization else pi / xj.shape[1]
            pairs.append((a, pi))
    return pairs


@pytest.mark.parametrize("corrupt_normalization", [False, True])
@pytest.mark.parametrize("product_bath", ["mixed", "polarized"])
@pytest.mark.parametrize("family", ["m", "jm", "product"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_family_blocks_scatter_back_to_the_dense_pairs(N, family, product_bath,
                                                        corrupt_normalization):
    ref = dense_projection_family(N, family, corrupt_normalization, product_bath)
    n_pairs, blocks = _family_blocks(N, family, corrupt_normalization, product_bath)
    assert n_pairs == len(ref)
    d = 1 << N
    a, b = np.zeros((2, n_pairs, d, d))
    for (s, idx, a_s, b_s), two_m in zip(blocks, range(-N, N + 1, 2)):
        np.testing.assert_array_equal(s, _sector_states(N)[two_m])
        # a pair is listed in every sector it has weight in, and only there
        touched = [i for i, pair in enumerate(ref) if any(np.any(op[np.ix_(s, s)]) for op in pair)]
        np.testing.assert_array_equal(idx, touched)
        a[np.ix_(idx, s, s)], b[np.ix_(idx, s, s)] = a_s, b_s
    np.testing.assert_array_equal(a, [a_i for a_i, _ in ref])
    np.testing.assert_array_equal(b, [b_i for _, b_i in ref])


class TestProjectionConditions:
    @pytest.mark.parametrize("family", ["m", "jm", "product"])
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_valid_families(self, family, N):
        rep = check_projection_conditions(N, family)
        assert rep.idempotency_defect <= 1e-10
        assert rep.trace_defect <= 1e-10
        assert rep.min_choi_eigenvalue >= -1e-10
        if family != "product":  # only the correlated families fix J_3^tot
            assert rep.j3_invariance_defect <= 1e-10

    def test_invariance_defects_distinguish_families(self):
        assert check_projection_conditions(2, "jm").j2_invariance_defect <= 1e-10
        assert check_projection_conditions(2, "m").j2_invariance_defect > 1e-3
        # the product projection erases the bath part of J_3^tot
        assert check_projection_conditions(2, "product").j3_invariance_defect > 1e-3

    def test_corrupted_normalization_fails_idempotency(self):
        rep = check_projection_conditions(4, "m", corrupt_normalization=True)
        assert rep.idempotency_defect > 0.5

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            check_projection_conditions(8, "m")
        with pytest.raises(CapacityError, match="PLP diagnostic supports at most N = 8"):
            check_plp_zero(SystemParams(N=9, A=0.1, omega0=1.0), family="m")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown projection family 'bogus'"):
            check_projection_conditions(2, "bogus")
        with pytest.raises(ValueError, match="unknown projection family 'bogus'"):
            check_plp_zero(SystemParams(N=2, A=0.1, omega0=1.0), family="bogus")

    @pytest.mark.parametrize("family", ["m", "jm", "product"])
    def test_unknown_product_bath_for_every_family(self, family):
        with pytest.raises(ValueError, match="unknown product_bath 'bogus'"):
            check_plp_zero(SystemParams(N=3, A=0.1, omega0=1.0), family=family,
                           product_bath="bogus")

    @pytest.mark.parametrize("N", [0, -2])
    def test_bath_without_spins(self, N):
        # check_plp_zero takes N from SystemParams, which rejects it first
        message = f"at least one bath spin, got N = {N}"
        for family in ("m", "jm", "product"):
            with pytest.raises(ValueError, match=message):
                check_projection_conditions(N, family)


def sector_rows(N):
    """Full-space rows (S, 2^N + S) of every bath J_3 sector S, as _family_blocks orders them."""
    two_m = np.array([N - 2 * bin(n).count("1") for n in range(1 << N)])
    return [np.flatnonzero(np.tile(two_m, 2) == tm) for tm in range(-N, N + 1, 2)]


@pytest.mark.parametrize("adjoint", [False, True])
def test_stacked_projection_matches_the_partial_trace_definition(adjoint):
    # unsymmetric pairs, so that a transposed contraction cannot pass, block diagonal in
    # the bath J_3 sectors {0}, {1, 2, 4}, {3, 5, 6}, {7} of N = 3; each pair touches other
    # sectors, the third has its A in one sector and its B in two, the last spans them all
    N, d = 3, 8
    rng = np.random.default_rng(5)
    sectors = [np.array([0]), np.array([1, 2, 4]), np.array([3, 5, 6]), np.array([7])]
    support = [([1], [1]), ([0, 2], [0, 2]), ([3], [2, 3]), ([0, 1, 2, 3], [0, 1, 2, 3])]
    pairs = []
    for a_sectors, b_sectors in support:
        a, b = np.zeros((2, d, d))
        for op, chosen in ((a, a_sectors), (b, b_sectors)):
            for k in chosen:
                s = sectors[k]
                op[np.ix_(s, s)] = rng.standard_normal((s.size, s.size))
        pairs.append((a, b))
    x = rng.standard_normal((2, 2 * d, 2 * d)) + 1j * rng.standard_normal((2, 2 * d, 2 * d))
    rows = sector_rows(N)
    blocks = []
    for k in (3, 2, 1, 0):  # ascending two_m, as sector_rows orders them
        s, idx = sectors[k], [i for i, (a_k, b_k) in enumerate(support) if k in a_k + b_k]
        blocks.append((s, np.array(idx), *(np.stack([pairs[i][j][np.ix_(s, s)] for i in idx])
                                          for j in (0, 1))))
    out = _project(blocks, len(pairs), [x[:, r[:, None], r] for r in rows], adjoint=adjoint)
    for sample in range(2):
        ref = sum(
            # P x = sum_i tr_E{(I (x) B_i) x} (x) A_i, and the adjoint swaps A_i and B_i
            np.kron(reduce_central(np.kron(np.eye(2), left) @ x[sample], N), right)
            for left, right in ((a, b) if adjoint else (b, a) for a, b in pairs)
        )
        got = np.zeros_like(ref)
        for r, block in zip(rows, out):
            got[np.ix_(r, r)] = block[sample]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)


class TestBlockChoiSpectrum:
    @staticmethod
    def dense_min_eigenvalue(pairs):
        return np.linalg.eigvalsh(sum(np.kron(b_i.T, a_i) for a_i, b_i in pairs))[0]

    @pytest.mark.parametrize(
        "N, family, kwargs",
        [
            (N, family, kwargs)
            for N in (2, 4)
            for family, kwargs in [
                ("m", {}), ("jm", {}), ("product", {}), ("product", {"product_bath": "polarized"}),
            ]
        ]
        + [(4, family, {"corrupt_normalization": True}) for family in ("m", "jm", "product")],
    )
    def test_matches_dense_reference(self, N, family, kwargs):
        pairs = dense_projection_family(N, family, **kwargs)
        got = _min_choi_eigenvalue(_family_blocks(N, family, **kwargs)[1])
        assert abs(got - self.dense_min_eigenvalue(pairs)) <= 1e-14


_CAPPED_CHILD = textwrap.dedent(
    """
    from spinstar.oracle import check_projection_conditions

    rep = check_projection_conditions(6, "jm")
    assert rep.min_choi_eigenvalue >= -1e-12 and rep.j2_invariance_defect <= 1e-10
    """
)


def test_projection_check_fits_a_memory_cap(run_capped):
    # the dense 4096 x 4096 Choi matrix is 128 MiB, and summing the krons
    # needs three of them at once; the sector-pair blocks are at most 400^2
    proc = run_capped(_CAPPED_CHILD, cap_mib=256)
    assert proc.returncode == 0, proc.stderr[-2000:]


_CAPPED_ORACLE_CHILD = textwrap.dedent(
    """
    import numpy as np
    from spinstar.oracle import propagate
    from spinstar.sectors import SystemParams

    p = SystemParams(N=12, A=0.1, omega0=1.0, initial_p_plus=0.7, initial_coh=0.3 - 0.1j)
    res = propagate(p, np.linspace(0.0, 10.0, 11))
    assert np.max(np.abs(res.p_plus + res.p_minus - 1.0)) <= 1e-13
    """
)


def test_oracle_at_twelve_spins_fits_a_memory_cap(run_capped):
    # the largest block has D = 1716 states, 22.5 MiB per D x D matrix; the child peaks
    # at 273 MB RSS and needs 368 MiB of address space, so the cap leaves 64 MiB
    # (about three such matrices).  Holding three unfolded D x D weights per projector
    # through the time loop needed more than 432 MiB.
    proc = run_capped(_CAPPED_ORACLE_CHILD, cap_mib=432)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestFirstOrderTermVanishes:
    PARAMS = SystemParams(N=3, A=0.2, omega0=1.0)

    @pytest.mark.parametrize("family", ["m", "jm", "product"])
    def test_correlated_and_mixed_product_families(self, family):
        assert check_plp_zero(self.PARAMS, family=family, n_samples=4) <= 1e-12

    def test_full_interaction_negative_control(self):
        res = check_plp_zero(self.PARAMS, family="m", interaction="full", n_samples=4)
        assert res > 0.1

    def test_polarized_bath_negative_control(self):
        # a polarized bath reference leaves the diagonal part of the coupling
        # with a nonzero bath average, so the first-order term survives
        res = check_plp_zero(
            self.PARAMS, family="product", interaction="full",
            product_bath="polarized", n_samples=4,
        )
        assert res > 0.1

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_is_an_error(self, n_samples):
        with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n_samples}"):
            check_plp_zero(self.PARAMS, family="m", interaction="full", n_samples=n_samples)


def dense_plp_residual(params, family, interaction, product_bath, n_samples):
    """check_plp_zero on dense 2^(N+1) matrices: every pair, full commutators."""
    N, d = params.N, 1 << params.N
    pairs = dense_projection_family(N, family, product_bath=product_bath)
    a, b = np.stack([a_i for a_i, _ in pairs]), np.stack([b_i for _, b_i in pairs])

    def project(x):
        # tr_E{(I (x) B_i) x}[a, b] = sum_{n,k} B_i[n,k] x[(a,k),(b,n)], then (x) A_i
        sys_part = np.tensordot(b, x.reshape(2, d, 2, d), ([1, 2], [3, 1]))
        return np.tensordot(sys_part, a, (0, 0)).transpose(0, 2, 1, 3).reshape(2 * d, 2 * d)

    h = build_hamiltonian(params)
    # H_0 is the diagonal of H under the flip-flop split, the central spin's Zeeman term otherwise
    h0 = np.diag(h) if interaction == "flip_flop" else np.repeat([0.5, -0.5], d) * params.omega0
    h_int = h - np.diag(h0)
    rng = np.random.default_rng(spinstar.oracle._PLP_SEED)
    samples = []
    for _ in range(n_samples):
        g = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
        samples.append(0.5 * (g + g.conj().T))
    worst = 0.0
    for x in samples:
        px = project(x)
        for t in spinstar.oracle._PLP_TIMES:
            ph = np.exp(1j * h0 * t)
            h_t = (ph[:, None] * h_int) * ph.conj()[None, :]
            worst = max(worst, float(np.max(np.abs(project(-1j * (h_t @ px - px @ h_t))))))
    return worst


@pytest.mark.parametrize("interaction", ["flip_flop", "full"])
@pytest.mark.parametrize(
    "family, product_bath",
    [("m", "mixed"), ("jm", "mixed"), ("product", "mixed"), ("product", "polarized")],
)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_plp_residual_matches_the_dense_route(N, family, product_bath, interaction):
    params = SystemParams(N=N, A=0.2, omega0=1.0)
    args = (params, family, interaction, product_bath, 4)
    got, ref = check_plp_zero(*args), dense_plp_residual(*args)
    if ref == 0.0:  # every flip-flop case: P reads no weight of H_I(t) P X
        assert got == 0.0
    elif ref < 1e-14:  # the mixed product bath under the full coupling: zero up to rounding
        assert got < 1e-14
    else:
        assert abs(got - ref) <= 1e-13 * ref


_CAPPED_PLP_CHILD = textwrap.dedent(
    """
    from spinstar.oracle import check_plp_zero
    from spinstar.sectors import SystemParams

    assert check_plp_zero(SystemParams(N=8, A=0.2, omega0=1.0), family="jm") == 0.0
    """
)


def test_plp_check_at_eight_spins_fits_a_memory_cap(run_capped):
    # dense, the ten 512 x 512 complex samples, the five interaction-picture
    # Hamiltonians and the projection pairs need about 280 MiB of address space;
    # on the sector blocks, with only the raw real draws dense, the whole process
    # peaks at 56 MB RSS (69 MB with dense pairs), most of it the interpreter and numpy
    proc = run_capped(_CAPPED_PLP_CHILD, cap_mib=224)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_oracle_is_independent_of_the_sector_combinatorics():
    """The oracle takes only SystemParams from sectors, never the (j, m) tables."""
    tree = ast.parse(Path(spinstar.oracle.__file__).read_text())
    from_sectors = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("sectors")
        for alias in node.names
    ]
    assert from_sectors == ["SystemParams"]
    plain = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert not any(name.endswith("sectors") for name in plain)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not {"sector_family", "SectorFamily"} & (names | attrs)


def test_projection_demo_runs_and_its_controls_fail(tmp_path):
    # a copy, because the demos write next to themselves
    demo = Path(__file__).resolve().parents[1] / "demos" / "demo_projection_checks.py"
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(spinstar.oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    controls = [float(line.split()[-2]) for line in proc.stdout.splitlines()
                if line.endswith("(control)")]
    assert len(controls) == 2 and min(controls) > 0.1, proc.stdout

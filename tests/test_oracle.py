import ast
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spinstar.oracle
import spinstar.trajectory

from spinstar.oracle import (
    MAX_BATH_SPINS,
    MAX_DENSE_BATH_SPINS,
    CapacityError,
    _min_choi_eigenvalue,
    build_hamiltonian,
    check_plp_zero,
    check_projection_conditions,
    projection_family,
    propagate,
)
from spinstar.sectors import SystemParams


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

    def test_time_chunks_do_not_change_the_result(self, monkeypatch):
        p = SystemParams(
            N=4, A=0.18, omega0=1.0, initial_p_plus=0.65, initial_coh=0.3 - 0.2j
        )
        t = np.linspace(0.0, 15.0, 60)
        whole = propagate(p, t, resolve="jm")
        monkeypatch.setattr(spinstar.trajectory, "_CHUNK_BYTES", 16 * 10 * 7)
        chunked = propagate(p, t, resolve="jm")  # blocks of dimension 10: 7 times per chunk
        for name in ("p_plus", "p_minus", "coh", "sector_p_plus", "sector_p_minus", "sector_coh"):
            np.testing.assert_allclose(
                getattr(chunked, name), getattr(whole, name), rtol=0, atol=1e-15
            )

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


class TestProjectionConditions:
    @pytest.mark.parametrize("family", ["m", "jm", "product"])
    @pytest.mark.parametrize("N", [2, 4])
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
        with pytest.raises(CapacityError):
            projection_family(9, "m")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            projection_family(2, "bogus")


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
        pairs = projection_family(N, family, **kwargs)
        assert abs(_min_choi_eigenvalue(pairs, N) - self.dense_min_eigenvalue(pairs)) <= 1e-14

    def test_weight_outside_the_sector_blocks_is_rejected(self):
        d = 4  # N = 2: sectors {0}, {1, 2}, {3}
        with pytest.raises(AssertionError, match="block diagonal"):
            _min_choi_eigenvalue([(np.full((d, d), 1.0 / d), np.eye(d))], 2)
        b = np.eye(d)
        b[0, 3] = b[3, 0] = 0.5  # couples the all-up and all-down bath states
        with pytest.raises(AssertionError, match="block diagonal"):
            _min_choi_eigenvalue([(np.eye(d) / d, b)], 2)


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

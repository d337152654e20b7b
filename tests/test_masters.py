import contextlib
import dataclasses
import math
import textwrap
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import exact, masters, trajectory
from spinstar.exact import exact_population_plus, exact_trajectory
from spinstar.masters import (
    _SIN_SERIES,
    _frame_phase,
    _sector_p_minus,
    _solve,
    j3tot_expectation,
    nz2_coherence_m,
    nz2_jm,
    nz2_population_m,
    standard_projection_population,
    tcl2_coherence_m,
    tcl2_coherence_via_ode,
    tcl2_jm,
    tcl2_population_m,
    tcl2_population_via_ode,
)
from spinstar.sectors import (
    SystemParams,
    coupling_from_alpha,
    sector_family,
    weights_m_array,
)
from spinstar.volterra import SolveOptions

PARAMS = SystemParams(
    N=5, A=0.08, omega0=1.1, initial_p_plus=0.7, initial_coh=0.25 - 0.15j
)
T = np.linspace(0.0, 25.0, 126)


class TestClosedFormsAgainstDirectIntegration:
    """The exp(-Lambda) closed forms vs RK4 on the time-local equations."""

    @pytest.mark.parametrize("family", ["m", "jm"])
    def test_coherence(self, family):
        closed = tcl2_coherence_m(PARAMS, T) if family == "m" else tcl2_jm(PARAMS, T)
        ode = tcl2_coherence_via_ode(PARAMS, T, family=family)
        np.testing.assert_allclose(closed.coh, ode.coh, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("family", ["m", "jm"])
    def test_populations(self, family):
        closed = tcl2_population_m(PARAMS, T) if family == "m" else tcl2_jm(PARAMS, T)
        ode = tcl2_population_via_ode(PARAMS, T, family=family)
        np.testing.assert_allclose(closed.p_plus, ode.p_plus, rtol=0, atol=1e-9)


class TestInitialConditionsAndConservation:
    SOLVERS = [
        lambda p, t: tcl2_population_m(p, t),
        lambda p, t: nz2_population_m(p, t),
        lambda p, t: tcl2_jm(p, t),
        lambda p, t: nz2_jm(p, t),
    ]

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_initial_population_exact(self, solver):
        traj = solver(PARAMS, np.array([0.0, 1.0, 2.0]))
        assert traj.p_plus[0] == PARAMS.initial_p_plus

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_trace_preserved_exactly(self, solver):
        traj = solver(PARAMS, T)
        assert traj.trace_drift() == 0.0  # p_minus = 1 - p_plus by construction

    def test_initial_coherence_exact(self):
        for traj in (tcl2_coherence_m(PARAMS, T), tcl2_jm(PARAMS, T),
                     nz2_coherence_m(PARAMS, T), nz2_jm(PARAMS, T)):
            assert traj.coh[0] == complex(PARAMS.initial_coh)

    def test_j3tot_conserved(self):
        # the N = 101 input reduces tables of 102 (m) and 1892 (jm) sectors
        n101 = SystemParams(N=101, A=coupling_from_alpha(101, 1.0, 0.3), omega0=1.0,
                            initial_p_plus=0.7, initial_coh=0.2 + 0.1j)
        for p, t, tol in ((PARAMS, np.linspace(0.0, 40.0, 81), 1e-12),
                          (n101, np.linspace(0.0, 25.0, 127), 1e-14)):
            bundles = [
                tcl2_population_m(p, t, return_sectors=True)[1],
                nz2_population_m(p, t, return_sectors=True)[1],
                tcl2_jm(p, t, return_sectors=True)[1],
                nz2_jm(p, t, return_sectors=True)[1],
            ]
            for bundle in bundles:
                q = j3tot_expectation(bundle)
                assert np.max(np.abs(q - q[0])) <= tol

    def test_j3tot_independent_of_memory_layout(self):
        _, bundle = nz2_jm(PARAMS, np.linspace(0.0, 40.0, 81), return_sectors=True)
        c_ordered = dataclasses.replace(
            bundle, p_plus=np.ascontiguousarray(bundle.p_plus),
            p_minus=np.ascontiguousarray(bundle.p_minus),
        )
        f_ordered = dataclasses.replace(
            bundle, p_plus=np.asfortranarray(bundle.p_plus),
            p_minus=np.asfortranarray(bundle.p_minus),
        )
        assert f_ordered.p_plus.flags.f_contiguous and not f_ordered.p_plus.flags.c_contiguous
        np.testing.assert_array_equal(j3tot_expectation(f_ordered), j3tot_expectation(c_ordered))

    def test_j3tot_requires_populations(self):
        _, bundle = tcl2_coherence_m(PARAMS, T, return_sectors=True)
        with pytest.raises(ValueError):
            j3tot_expectation(bundle)

    def test_sector_coherence_magnitudes_bounded(self):
        # Re Lambda^coh >= 0: every sector factor can only shrink
        w = weights_m_array(PARAMS.N)
        _, bundle = tcl2_coherence_m(PARAMS, T, return_sectors=True)
        bound = (w * abs(complex(PARAMS.initial_coh)))[:, None]
        assert np.all(np.abs(bundle.coh) <= bound + 1e-12)


class TestMProjectionDecayExponent:
    def test_known_population_exponent_value(self):
        # N=2, A=0.1, m=0: Lambda = 8 A^2 (N+1) (1 - cos(1.2 t)) / 1.2^2
        # equals 1/3 at t = pi/1.2
        p = SystemParams(N=2, A=0.1, omega0=1.0, initial_p_plus=1.0)
        t = np.array([0.0, math.pi / 1.2])
        _, bundle = tcl2_population_m(p, t, return_sectors=True)
        w = weights_m_array(2)  # [1/4, 1/2, 1/4]
        d0 = 2.0 * w[1] / 3.0  # steady value of the m=0 sector, p0 = 1
        y0 = w[1] - d0
        lam = -math.log((bundle.p_plus[1, 1] - d0) / y0)
        np.testing.assert_allclose(lam, 1.0 / 3.0, rtol=1e-12)

    def test_sector_populations_sum_to_total(self):
        for fn in (tcl2_population_m, nz2_population_m):
            traj, bundle = fn(PARAMS, T, return_sectors=True)
            np.testing.assert_allclose(
                np.sum(bundle.p_plus, axis=0), traj.p_plus, atol=1e-12
            )
            np.testing.assert_allclose(
                np.sum(bundle.p_plus + bundle.p_minus, axis=0), 1.0, atol=1e-12
            )


class TestNZ2:
    def test_single_pair_analytic_solution(self):
        # N=1: each sector holds one (j=1/2) pair; the cosine-kernel Volterra
        # equation has the closed Laplace solution used here as the oracle
        p = SystemParams(N=1, A=0.12, omega0=0.9, initial_p_plus=0.8)
        t = np.linspace(0.0, 20.0, 201)
        traj = nz2_population_m(p, t, opts=SolveOptions(step=0.002))
        big_k = 8.0 * p.A**2 * (p.N + 1)
        w = np.array([0.5, 0.5])
        c = np.array([w[0] * 0.8 + w[1] * 0.2, w[1] * 0.8])
        d = np.array([1.0 * c[0] / 2.0, 2.0 * c[1] / 2.0])
        y0 = w * 0.8 - d
        omegas = np.array([p.omega0, p.omega0 + 4 * p.A])  # Omega_+(m) per sector
        s2 = omegas**2 + big_k
        y = y0[:, None] * (
            (omegas**2 / s2)[:, None]
            + (big_k / s2)[:, None] * np.cos(np.sqrt(s2)[:, None] * t[None, :])
        )
        expected = 0.8 + np.sum(y - y0[:, None], axis=0)
        np.testing.assert_allclose(traj.p_plus, expected, rtol=0, atol=1e-7)

    def test_jm_populations_reproduce_exact_dynamics(self):
        p = SystemParams(N=4, A=0.15, omega0=1.0, initial_p_plus=0.9)
        t = np.linspace(0.0, 30.0, 301)
        nz = nz2_jm(p, t)
        ex = exact_population_plus(p, t)
        np.testing.assert_allclose(nz.p_plus, ex.p_plus, rtol=0, atol=1e-9)

    def test_solver_method_independence(self):
        p = SystemParams(
            N=4, A=0.1, omega0=1.0, initial_p_plus=0.5, initial_coh=0.5
        )
        t = np.linspace(0.0, 10.0, 101)
        a = nz2_coherence_m(p, t, opts=SolveOptions(step=0.005, method="aux_ode"))
        q = nz2_coherence_m(p, t, opts=SolveOptions(step=0.005, method="quadrature"))
        np.testing.assert_allclose(a.coh, q.coh, rtol=0, atol=1e-6)


class TestStandardProjection:
    def test_printed_closed_form(self):
        p = SystemParams(
            N=101, A=coupling_from_alpha(101, 1.0, 0.5), omega0=1.0,
            initial_p_plus=1.0,
        )
        t = np.array([0.0, math.pi, 2.0 * math.pi])
        traj = standard_projection_population(p, t)
        rate = 8.0 * p.A**2 * 101.0
        np.testing.assert_allclose(
            traj.p_plus, [1.0, 0.5 * (1.0 + math.exp(-2.0 * rate)), 1.0], rtol=1e-14
        )
        np.testing.assert_allclose(traj.p_plus[1], 0.99507, atol=5e-6)

    def test_periodicity(self):
        p = SystemParams(N=21, A=0.03, omega0=1.3, initial_p_plus=1.0)
        period = 2.0 * math.pi / p.omega0
        traj = standard_projection_population(p, np.array([0.0, period, 2 * period]))
        np.testing.assert_allclose(traj.p_plus, 1.0, atol=1e-12)

    def test_requires_excited_start(self):
        p = SystemParams(N=4, A=0.1, omega0=1.0, initial_p_plus=0.5)
        with pytest.raises(ValueError, match="initial_p_plus"):
            standard_projection_population(p, np.array([0.0, 1.0]))


class TestFrameTransform:
    """The rotating-frame phase that the NZ2 coherence routes apply per sector."""

    def test_phase_factor(self):
        # two_m = 2 (m = 1), A = 0.1, t = pi/0.4: phase exp(-2iA two_m t) = -1
        p = SystemParams(N=4, A=0.1, omega0=1.0)
        t = np.array([0.0, math.pi / 0.4])
        np.testing.assert_allclose(_frame_phase(p, 2, t), [1.0, -1.0], atol=1e-12)
        # one row per sector for an array of two_m
        phase = _frame_phase(p, np.array([0, 2]), t)
        np.testing.assert_allclose(phase, [[1.0, 1.0], [1.0, -1.0]], atol=1e-12)

    def test_zero_coupling_is_identity(self):
        p = SystemParams(N=4, A=0.0, omega0=1.0)
        t = np.linspace(0.0, 5.0, 6)
        np.testing.assert_array_equal(_frame_phase(p, 4, t), np.ones(6))


class TestJMProjection:
    def test_stretched_sector_population_is_frozen(self):
        # b(j=N/2, m=N/2) = 0: the top sector has no partner and cannot decay
        p = SystemParams(N=4, A=0.2, omega0=1.0, initial_p_plus=0.6)
        t = np.linspace(0.0, 20.0, 41)
        for fn in (tcl2_jm, nz2_jm):
            _, bundle = fn(p, t, return_sectors=True)
            top = (bundle.two_j == 4) & (bundle.two_m == 4)
            (row,) = np.nonzero(top)
            np.testing.assert_allclose(
                bundle.p_plus[row[0]], bundle.p_plus[row[0], 0], atol=1e-12
            )

    def test_sector_sums_match_totals(self):
        traj, bundle = tcl2_jm(PARAMS, T, return_sectors=True)
        np.testing.assert_allclose(
            np.sum(bundle.p_plus, axis=0), traj.p_plus, atol=1e-12
        )
        np.testing.assert_allclose(np.sum(bundle.coh, axis=0), traj.coh, atol=1e-12)


class TestSharedKernelsAtResonance:
    """A < 0 with an exact resonance Omega_+(m) = 0, through every kernel of both families.

    omega0 = 1, A = -0.25 gives Omega_+ = 0 at two_m = 1, where the TCL2
    exponents (1 - e^{i Omega t})/Omega^2 + i t/Omega and the via-ODE kernels
    reach their removable singularity.  A = -0.25 (1 - delta) puts
    Omega_+ = delta just beside it, where an unguarded formula cancels.
    """

    CASES = [
        SystemParams(N=n, A=-0.25, omega0=1.0, initial_p_plus=0.6, initial_coh=0.3 - 0.1j)
        for n in (3, 1)
    ]
    NEAR = {
        f"N{n}-d{delta:g}": SystemParams(
            N=n, A=-0.25 * (1.0 - delta), omega0=1.0, initial_p_plus=0.6,
            initial_coh=0.3 - 0.1j,
        )
        for n in (3, 1) for delta in (1e-9, 1e-7, 1e-5)
    }
    T = np.linspace(0.0, 5.0, 51)
    OPTS = SolveOptions(step=0.001)

    @pytest.mark.parametrize("p", CASES, ids=["N3", "N1"])
    def test_nz2_jm_populations_are_exact(self, p):
        assert np.any(sector_family(p, "jm").om_p == 0.0)
        got = nz2_jm(p, self.T, self.OPTS).p_plus
        ref = exact_population_plus(p, self.T).p_plus
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["m", "jm"])
    @pytest.mark.parametrize(
        "p", CASES + list(NEAR.values()), ids=["N3", "N1"] + list(NEAR)
    )
    def test_closed_forms_match_direct_integration(self, p, family):
        self._check_against_direct_integration(p, family)

    @pytest.mark.parametrize("family", ["m", "jm"])
    @pytest.mark.parametrize(
        "p", CASES + list(NEAR.values()), ids=["N3", "N1"] + list(NEAR)
    )
    def test_the_tiles_match_direct_integration(self, on_the_tiles, p, family):
        self._check_against_direct_integration(p, family)
        assert on_the_tiles

    def _check_against_direct_integration(self, p, family):
        om_p = np.abs(sector_family(p, family).om_p)
        if p.A == -0.25:
            assert np.any(om_p == 0.0)
        else:
            assert 0.0 < om_p.min() <= 1e-4
        if family == "m":
            pop, coh = tcl2_population_m(p, self.T), tcl2_coherence_m(p, self.T)
        else:
            pop = coh = tcl2_jm(p, self.T)
        ode_coh = tcl2_coherence_via_ode(p, self.T, family, self.OPTS).coh
        ode_pop = tcl2_population_via_ode(p, self.T, family, self.OPTS).p_plus
        np.testing.assert_allclose(coh.coh, ode_coh, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pop.p_plus, ode_pop, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fn", [tcl2_population_m, tcl2_jm])
    @pytest.mark.parametrize("p", CASES, ids=["N3", "N1"])
    def test_pair_conservation_along_sector_bundle(self, p, fn):
        _, b = fn(p, self.T, return_sectors=True)
        two_j = np.full_like(b.two_m, p.N) if b.two_j is None else b.two_j
        labels = {(j, m): i for i, (j, m) in enumerate(zip(two_j.tolist(), b.two_m.tolist()))}
        pairs = 0
        for (j, m), i in labels.items():
            up = labels.get((j, m + 2))
            if up is None:
                continue
            pair = b.p_plus[i] + b.p_minus[up]  # P^m_+ + P^{m+1}_-
            np.testing.assert_allclose(pair, pair[0], rtol=0, atol=1e-15)
            pairs += 1
        assert pairs == b.two_m.size - len(set(two_j.tolist()))


def _resonant_or_generic_params(data):
    """N <= 40, either sign of A, omega0 and p0; half the draws sit at Omega_+(m) = 0."""
    n = data.draw(st.integers(1, 40), label="N")
    magnitude = data.draw(st.floats(0.01, 0.3), label="|A|")
    p0 = data.draw(st.floats(0.0, 1.0), label="p0")
    radius = data.draw(st.floats(0.0, 1.0), label="|coh| / sqrt(p0 (1 - p0))")
    phase = data.draw(st.floats(0.0, 2.0 * math.pi), label="arg coh")
    coh = radius * math.sqrt(p0 * (1.0 - p0)) * complex(math.cos(phase), math.sin(phase))
    two_ms = [m for m in range(-n, n + 1, 2) if m + 1 != 0]
    if data.draw(st.booleans(), label="resonant") and two_ms:
        two_m = data.draw(st.sampled_from(two_ms), label="resonant two_m")
        a = -math.copysign(magnitude, two_m + 1)
        omega0 = -(2.0 * a * (two_m + 1.0))  # Omega_+(m) == 0 bit for bit
    else:
        a = data.draw(st.sampled_from([-1.0, 1.0]), label="sign A") * magnitude
        omega0 = data.draw(st.floats(0.1, 3.0), label="omega0")
    return SystemParams(N=n, A=a, omega0=omega0, initial_p_plus=p0, initial_coh=coh)


def _drawn_route(data):
    """A context in which the sector sums of a uniform grid take the kernel or, as drawn,
    the tiles."""
    if data.draw(st.booleans(), label="tiles"):
        return mock.patch.object(trajectory, "_uniform_step", lambda t: None)
    return contextlib.nullcontext()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nz2_default_route_is_exact_hypothesis(data):
    p = _resonant_or_generic_params(data)
    t = np.linspace(0.0, 20.0, 81)
    with _drawn_route(data):
        np.testing.assert_allclose(
            nz2_jm(p, t).p_plus, exact_population_plus(p, t).p_plus, rtol=0, atol=1e-12
        )
        assert nz2_coherence_m(p, t).coh[0] == complex(p.initial_coh)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_solution_stays_positive_hypothesis(data):
    # a physical initial state stays physical: |coh|^2 <= p(1-p) along the exact solution
    p = _resonant_or_generic_params(data)
    with _drawn_route(data):
        traj = exact_trajectory(p, np.linspace(0.0, 40.0, 161))
    margin = np.abs(traj.coh) ** 2 - traj.p_plus * (1.0 - traj.p_plus)
    assert np.max(margin) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 7])
def test_decoupled_bath_leaves_the_state_constant(n):
    _check_decoupled_bath(n)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_decoupled_bath_leaves_the_state_constant_on_the_tiles(on_the_tiles, n):
    _check_decoupled_bath(n)
    assert on_the_tiles


def _check_decoupled_bath(n):
    p = SystemParams(N=n, A=0.0, omega0=1.3, initial_p_plus=0.7, initial_coh=0.3 - 0.2j)
    t = np.linspace(0.0, 30.0, 61)
    trajs = [
        exact_trajectory(p, t), tcl2_coherence_m(p, t), tcl2_population_m(p, t),
        nz2_coherence_m(p, t), nz2_population_m(p, t), tcl2_jm(p, t), nz2_jm(p, t),
    ]
    for traj in trajs:
        if traj.p_plus is not None:
            np.testing.assert_allclose(traj.p_plus, 0.7, rtol=0, atol=1e-15)
            np.testing.assert_allclose(traj.p_minus, 0.3, rtol=0, atol=1e-15)
        if traj.coh is not None:
            np.testing.assert_allclose(traj.coh, 0.3 - 0.2j, rtol=0, atol=1e-15)


class TestTimeChunks:
    """TCL2 and NZ2 (default route) run per time chunk; no chunking changes a bit."""

    CLOSED_FORMS = {"tcl2_jm": tcl2_jm, "tcl2_coherence_m": tcl2_coherence_m,
                    "tcl2_population_m": tcl2_population_m, "nz2_jm": nz2_jm,
                    "nz2_coherence_m": nz2_coherence_m, "nz2_population_m": nz2_population_m}
    T = np.linspace(0.0, 25.0, 127)

    @pytest.mark.parametrize("return_sectors", [False, True])
    @pytest.mark.parametrize("fn", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
    def test_chunked_closed_forms_are_bit_identical(self, monkeypatch, on_the_tiles, fn,
                                                    return_sectors):
        # the totals from the chunked tiles too, where on this grid they take the kernel
        whole = fn(PARAMS, self.T, return_sectors=return_sectors)
        on_the_tiles.clear()
        # blocks of one chain each, the longest (j = 5/2, and the whole m table) 6 sectors
        # at 40 bytes per sector-time point, 48 with sectors: 5 times per chunk
        rows, point = 6, 48 if return_sectors else 40
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", point * rows * 5)
        monkeypatch.setattr(trajectory, "_workers", lambda: 1)  # the chunks counted below run
        assert len(list(trajectory._time_chunks(self.T.size, point * rows))) == 26
        chunked = fn(PARAMS, self.T, return_sectors=return_sectors)
        assert on_the_tiles
        if return_sectors:
            (whole, whole_bundle), (chunked, chunked_bundle) = whole, chunked
            for part in ("p_plus", "p_minus", "coh"):
                a, b = getattr(chunked_bundle, part), getattr(whole_bundle, part)
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(a, b)
        for part in ("p_plus", "p_minus", "coh"):
            a, b = getattr(chunked, part), getattr(whole, part)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)


def _tile_totals(monkeypatch, p, t, family):
    """NZ2 of ``family`` with its totals from the tiles, as on a non-uniform grid."""
    with monkeypatch.context() as patch:
        patch.setattr(trajectory, "_uniform_step", lambda t: None)
        return _solve(p, t, "nz2", family)[0]


class TestKernelRoute:
    """NZ2 totals by trajectory._exp_sum on a uniform grid."""

    T = 0.5 * np.arange(601)
    # N <= 40 at A = -0.13 (resonant: Omega_+(m) = 0 at one sector); N = 101 at
    # the coupling of the figure presets, alpha = 0.1
    CASES = {
        "1-m": (1, "m", False), "1-jm": (1, "jm", False), "5-jm": (5, "jm", False),
        "5-m-resonant": (5, "m", True), "5-jm-resonant": (5, "jm", True),
        "40-jm": (40, "jm", False), "101-m": (101, "m", None), "101-jm": (101, "jm", None),
    }

    @pytest.mark.parametrize("n, family, resonant", CASES.values(), ids=CASES.keys())
    def test_totals_equal_the_tile_totals(self, monkeypatch, n, family, resonant):
        p = (_generic_or_resonant(n, resonant) if resonant is not None else SystemParams(
            N=n, A=coupling_from_alpha(n, 1.0, 0.1), omega0=1.0, initial_p_plus=0.8,
            initial_coh=0.3 - 0.1j))
        if resonant:
            assert np.any(sector_family(p, family).om_p == 0.0)
        kernel = _solve(p, self.T, "nz2", family)[0]
        tiles = _tile_totals(monkeypatch, p, self.T, family)
        np.testing.assert_allclose(kernel.coh, tiles.coh, rtol=0, atol=1e-14)
        np.testing.assert_allclose(kernel.p_plus, tiles.p_plus, rtol=0, atol=1e-14)
        assert kernel.coh[0] == p.initial_coh and kernel.p_plus[0] == p.initial_p_plus

    @pytest.mark.parametrize("fn", [nz2_jm, nz2_coherence_m, nz2_population_m])
    def test_start_is_exact_and_a_decoupled_bath_is_constant(self, fn):
        for a in (0.08, -0.2, 0.0):
            p = dataclasses.replace(PARAMS, A=a)
            traj = fn(p, self.T)
            if traj.coh is not None:
                assert traj.coh[0] == PARAMS.initial_coh
            if traj.p_plus is not None:
                assert traj.p_plus[0] == PARAMS.initial_p_plus
            if a == 0.0:
                for got, start in ((traj.coh, PARAMS.initial_coh),
                                   (traj.p_plus, PARAMS.initial_p_plus)):
                    if got is not None:
                        np.testing.assert_array_equal(got, start)

    def test_tiles_run_only_for_bundles(self, tile_calls):
        _solve(PARAMS, self.T, "nz2", "jm")
        assert tile_calls == []  # as in ``spinstar run`` and ``spinstar compare``
        _solve(PARAMS, self.T, "nz2", "jm", sectors=True)
        assert tile_calls == [(True, True)]

    def test_other_grids_and_explicit_options_take_the_tiles(self, monkeypatch):
        monkeypatch.setattr(trajectory, "_exp_sum", None)  # any kernel route would fail
        geometric = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 90)])
        assert trajectory._uniform_step(geometric) is None
        nz2_jm(PARAMS, geometric)
        nz2_jm(PARAMS, self.T[:101], opts=SolveOptions(step=0.01))
        with pytest.raises(TypeError):
            nz2_jm(PARAMS, self.T)

    def test_a_grid_that_does_not_start_at_zero_still_fails(self):
        shifted = 3.7 + 0.5 * np.arange(100)
        assert trajectory._uniform_step(shifted) is not None
        for fn in (nz2_jm, nz2_coherence_m, nz2_population_m):
            with pytest.raises(ValueError, match="start at 0"):
                fn(PARAMS, shifted)


def _direct_exponent(terms, t, imag: bool):
    """sum over (coef, Omega) in terms of coef g(Omega, t), evaluated sector by sector.

    The reference for the detuning table of the TCL2 kernel: every term takes
    its own sin on its own (sectors, times) grid, with Re g added first.
    """
    lam = np.zeros((terms[0][0].size, t.size), complex if imag else float)
    for coef, om in terms:
        x = np.multiply.outer(om, t)
        g = np.multiply(x, 0.5)
        np.divide(np.sin(g), g, out=g, where=x != 0.0)
        g[x == 0.0] = 1.0
        g *= g
        g *= (0.5 * coef)[:, None]
        g *= t * t
        lam.real += g
        if imag:
            small = np.abs(x) < 1.0
            np.subtract(x, np.sin(x), out=g)
            np.divide(g, x * x, out=g, where=~small)
            xs = x[small]
            g[small] = xs * np.polynomial.polynomial.polyval(xs * xs, _SIN_SERIES)
            g *= coef[:, None]
            g *= t * t
            lam.imag += g
    return lam


def _direct_tcl2(p, t, family):
    """(coh, P_+, sector coh, sector P_+) of the TCL2 closed forms, Omega_- read per sector."""
    fam, coh0 = sector_family(p, family), complex(p.initial_coh)
    f = _direct_exponent(((fam.b_p, fam.om_p), (fam.b_m, -fam.om_m)), t, imag=True)
    f.imag += np.multiply.outer(2.0 * p.A * fam.two_m, t)
    f = np.exp(-f)
    sector_coh = coh0 * fam.w[:, None] * f
    coh = coh0 * (1.0 + np.add.reduce((f - 1.0) * fam.w[:, None], axis=0))
    lam = -_direct_exponent(((fam.pair_coef, fam.om_p),), t, imag=False)
    sector_p = fam.steady[:, None] + fam.y0[:, None] * np.exp(lam)
    p_plus = p.initial_p_plus + np.add.reduce(np.expm1(lam) * fam.y0[:, None], axis=0)
    return coh, p_plus, sector_coh, sector_p, fam


def _generic_or_resonant(n, resonant):
    """A < 0; resonant puts Omega_+(m) = 0 bit for bit at the top sector two_m = N (N = 2: 0)."""
    a, two_m = -0.13, (0 if n == 2 else n)
    omega0 = -(2.0 * a * (two_m + 1.0)) if resonant else 0.9
    return SystemParams(N=n, A=a, omega0=omega0, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)


class TestDetuningTableEqualsDirectEvaluation:
    """The TCL2 kernel reads g(Omega, t) from one table of the N+2 detunings
    Omega_+(m); per-sector evaluation gives the same bits, with and without bundles."""

    T = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 90)])
    CLOSED_FORMS = {"tcl2_jm": (tcl2_jm, "jm"), "tcl2_coherence_m": (tcl2_coherence_m, "m"),
                    "tcl2_population_m": (tcl2_population_m, "m")}

    @pytest.mark.parametrize("resonant", [False, True], ids=["generic", "resonant"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_bit_identical(self, name, n, resonant):
        fn, family = self.CLOSED_FORMS[name]
        p = _generic_or_resonant(n, resonant)
        coh, p_plus, sector_coh, sector_p, fam = _direct_tcl2(p, self.T, family)
        if resonant:
            assert np.any(fam.om_p == 0.0)
        traj = fn(p, self.T)
        traj_s, bundle = fn(p, self.T, return_sectors=True)
        for got in (traj, traj_s):
            if got.coh is not None:
                np.testing.assert_array_equal(got.coh, coh)
            if got.p_plus is not None:
                np.testing.assert_array_equal(got.p_plus, p_plus)
        assert (bundle.coh is None) == (traj.coh is None)
        if bundle.coh is not None:
            np.testing.assert_array_equal(bundle.coh, sector_coh)
        assert (bundle.p_plus is None) == (traj.p_plus is None)
        if bundle.p_plus is not None:
            np.testing.assert_array_equal(bundle.p_plus, sector_p)
            np.testing.assert_array_equal(bundle.p_minus, _sector_p_minus(fam, sector_p))


def _exp_sum_calls(monkeypatch):
    """A list that records the term count of every trajectory._exp_sum call from now on."""
    calls, exp_sum = [], trajectory._exp_sum

    def spy(terms, *grid):
        terms = [(amp, nu) for amp, nu in terms]
        calls.append(sum(nu.size for _, nu in terms))
        return exp_sum(terms, *grid)

    monkeypatch.setattr(trajectory, "_exp_sum", spy)
    return calls


class TestTcl2KernelRoute:
    """The TCL2 totals by trajectory._exp_sum on uniform grids: each sector's closed
    form exp(-Lambda) as a Poisson series in e^{i Omega_+ t}, cut at degree n_s."""

    T = 0.5 * np.arange(1001)
    #: the kernel's phases round their arguments, about |nu t| eps per term, where
    #: the tiles round an exponent of about (b/Omega + 2A|two_m|) t; on this grid
    #: (t <= 500, |nu| <= 1.3 for the terms of weight above 1e-3) that is at most
    #: 500 * 1.3 * 2.2e-16 = 1.5e-13 per unit of |coh0| w, and the cut adds at most
    #: 2 |coh0| 2^-60.  Measured: <= 3.0e-15.
    TOL = 1.5e-13
    #: P_+ = P_+(0) + sum_s y0_s (g_s - 1) with g_s = exp(-c_s (1 - cos W_s t)): both
    #: routes round the phase W t, by about |W t| eps, and g moves by c |sin W t| g
    #: per unit of phase, at most c.  The folded terms at k W carry amplitudes of sum
    #: at most 1 per unit of |y0|, with mean k at most the mean degree c, so the
    #: kernel's phases round by at most c |W| t eps too.  On this grid (t <= 500, and
    #: c <= 0.07, |W| <= 1.2 and sum |y0| <= 0.4 at alpha = 0.1) that is at most
    #: 2 * 0.07 * 1.2 * 500 * 2.2e-16 * 0.4 = 7.4e-15; the cut adds at most 2 * 2^-60,
    #: and the sums round by a few eps.  Measured: <= 6.7e-16.
    POP_TOL = 1e-14

    @staticmethod
    def _params(n, sign):
        return SystemParams(N=n, A=sign * coupling_from_alpha(n, 1.0, 0.1), omega0=1.0,
                            initial_p_plus=0.8, initial_coh=0.3 - 0.1j)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["A>0", "A<0"])
    @pytest.mark.parametrize("family", ["m", "jm"])
    @pytest.mark.parametrize("n", [1, 2, 5, 101])
    def test_coherence_matches_the_closed_form(self, monkeypatch, n, family, sign):
        p = self._params(n, sign)
        calls = _exp_sum_calls(monkeypatch)
        traj = _solve(p, self.T, "tcl2", family, populations=False)[0]
        assert len(calls) == 1
        coh, *_ = _direct_tcl2(p, self.T, family)
        assert np.max(np.abs(traj.coh - coh)) <= self.TOL
        assert traj.coh[0] == p.initial_coh

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["A>0", "A<0"])
    @pytest.mark.parametrize("family", ["m", "jm"])
    @pytest.mark.parametrize("n", [1, 2, 5, 101])
    def test_populations_match_the_closed_form(self, monkeypatch, n, family, sign):
        p = self._params(n, sign)
        fam = sector_family(p, family)
        c = np.divide(fam.pair_coef, fam.om_p**2)
        # POP_TOL's bounds
        assert np.max(c) <= 0.07 and np.max(np.abs(fam.om_p)) <= 1.2
        assert np.sum(np.abs(fam.y0)) <= 0.4
        calls = _exp_sum_calls(monkeypatch)
        traj = _solve(p, self.T, "tcl2", family, coherence=False)[0]
        assert len(calls) == 1
        _, p_plus, *_ = _direct_tcl2(p, self.T, family)
        assert np.max(np.abs(traj.p_plus - p_plus)) <= self.POP_TOL
        assert traj.p_plus[0] == p.initial_p_plus

    @pytest.mark.parametrize("fn", [tcl2_jm, tcl2_coherence_m, tcl2_population_m])
    def test_start_is_exact_and_a_decoupled_bath_is_constant(self, monkeypatch, fn):
        calls = _exp_sum_calls(monkeypatch)
        t = 0.5 * np.arange(2001)
        for a in (0.01, -0.01, 0.0):
            traj = fn(dataclasses.replace(PARAMS, A=a), t)
            for got, start in ((traj.coh, PARAMS.initial_coh),
                               (traj.p_plus, PARAMS.initial_p_plus)):
                if got is not None:
                    assert got[0] == start
                    if a == 0.0:
                        np.testing.assert_array_equal(got, start)
        assert len(calls) == 3 * ((traj.coh is not None) + (traj.p_plus is not None))

    def test_uniform_grids_take_the_kernel_and_other_grids_the_tiles(self, monkeypatch):
        monkeypatch.setattr(trajectory, "_exp_sum", None)  # any kernel route would fail
        p = SystemParams(N=101, A=coupling_from_alpha(101, 1.0, 0.1), omega0=1.0,
                         initial_p_plus=0.8, initial_coh=0.3 - 0.1j)
        uniform = 0.5 * np.arange(2001)
        geometric = np.concatenate([[0.0], np.geomspace(0.05, 1000.0, 2000)])
        assert trajectory._uniform_step(geometric) is None
        tcl2_jm(p, geometric)
        for fn in (tcl2_jm, tcl2_coherence_m, tcl2_population_m):
            with pytest.raises(TypeError):
                fn(p, uniform)


class TestKernelAgreesWithTheTiles:
    """Every part by trajectory._exp_sum against the tiles on the same uniform grid,
    within the tolerance each part's kernel tests argue: 1001 times (t <= 500, where
    those arguments hold), and the edge grids of one and two times."""

    P = TestTcl2KernelRoute._params(101, 1.0)  # alpha = 0.1, the grounds of TOL and POP_TOL
    PARTS = {
        **{f"exact-{part}": ("exact", "jm", part == "pop", part == "coh", 1e-13)
           for part in ("coh", "pop")},
        **{f"tcl2-{part}-{family}": ("tcl2", family, part == "pop", part == "coh", tol)
           for part, tol in (("coh", TestTcl2KernelRoute.TOL), ("pop", TestTcl2KernelRoute.POP_TOL))
           for family in ("m", "jm")},
        **{f"nz2-{part}-{family}": ("nz2", family, part == "pop", part == "coh", 1e-14)
           for part in ("coh", "pop") for family in ("m", "jm")},
    }
    GRIDS = (0.5 * np.arange(1001), np.array([0.0]), np.array([3.7]), 0.5 * np.arange(2))

    @staticmethod
    def _run(method, family, populations, coherence, t):
        p = TestKernelAgreesWithTheTiles.P
        if method == "exact":
            return exact._exact(p, t, populations, coherence)
        return _solve(p, t, method, family, populations, coherence)[0]

    @pytest.mark.parametrize("name", PARTS)
    def test_kernel_and_tiles_agree(self, monkeypatch, name):
        *part, tol = self.PARTS[name]
        method, populations = part[0], part[2]
        calls = []
        for route in ("_tiles", "_exp_sum"):
            def spy(*args, fn=getattr(trajectory, route), route=route):
                calls.append(route)
                return fn(*args)

            monkeypatch.setattr(trajectory, route, spy)
        start = self.P.initial_p_plus if populations else self.P.initial_coh
        for t in self.GRIDS:
            if method == "nz2" and t[0] != 0.0:
                continue  # NZ2 refuses such a grid on either route
            got = {}
            for route, step in (("_exp_sum", trajectory._uniform_step), ("_tiles", lambda t: None)):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(trajectory, "_uniform_step", step)
                    traj = self._run(*part, t)
                assert calls == [route]
                got[route] = traj.p_plus if populations else traj.coh
                if t[0] == 0.0:
                    assert got[route][0] == start
            assert np.max(np.abs(got["_exp_sum"] - got["_tiles"])) <= tol


@pytest.mark.parametrize("method, family", [
    ("tcl2", "m"), ("nz2", "m"), ("tcl2", "jm"), ("nz2", "jm"), ("exact", "jm"),
], ids=["tcl2-m", "nz2-m", "tcl2-jm", "nz2-jm", "exact"])
def test_each_total_is_blind_to_the_other_part_and_to_the_tiles(monkeypatch, method, family):
    # on a uniform grid each part takes one _exp_sum call of its own, whether the
    # other part is asked for and whether sectors run the tiles (exact has none)
    t = 0.5 * np.arange(601)

    def solve(populations, coherence, sectors):
        if method == "exact":
            return exact._exact(PARAMS, t, populations, coherence)
        return _solve(PARAMS, t, method, family, populations, coherence, sectors=sectors)[0]

    calls = _exp_sum_calls(monkeypatch)
    ref = solve(True, True, False)
    assert len(calls) == 2
    for populations, coherence in ((True, True), (False, True), (True, False)):
        asked = {"coh": coherence, "p_plus": populations}
        for sectors in (False, True)[:1 if method == "exact" else 2]:
            calls.clear()
            traj = solve(populations, coherence, sectors)
            assert len(calls) == populations + coherence
            for part, on in asked.items():
                got = getattr(traj, part)
                assert (got is None) == (not on)
                if on:
                    np.testing.assert_array_equal(got, getattr(ref, part))


_LOG_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(512)])


def _poisson_log_term(lam, k):
    """log p_k of Poisson(lam) for integers 0 <= k < 512, -inf at lam = 0 < k."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k == 0, -lam, k * np.log(lam) - lam - _LOG_FACTORIAL[k])


def _poisson_certified(lam, budget, d):
    """Whether p_{d+1}/(1 - lam/(d+2)), with the _TAIL_MARGIN slack, is within the budget."""
    p = np.exp(_poisson_log_term(lam, d + 1))
    with np.errstate(invalid="ignore"):
        return (lam < d + 2) & (p * (1.0 + masters._TAIL_MARGIN)
                                <= budget * (1.0 - lam / (d + 2)))


_POISSON_CASES = [
    pytest.param(lam, budget, id=str(lam) if budget == masters._TAIL_WEIGHT else f"{lam}-{name}")
    for name, budget in (("2^-60", masters._TAIL_WEIGHT), ("1", 1.0), ("inf", math.inf))
    for lam in (0.0, 1e-300, 1e-12, 1e-3, 0.0173, 0.5, 1.0, 2.0, 3.0, 3.8)
]


@pytest.mark.parametrize("lam, budget", _POISSON_CASES)
def test_poisson_degrees_are_certified_and_least(lam, budget):
    # the Poisson(lam) tail beyond the degree, summed term by term in log space,
    # is at most the budget; one degree less fails the certified bound, and a
    # budget of at least 1 takes degree 0, since no tail exceeds 1
    n = int(masters._poisson_degrees(np.array([lam]), np.array([budget]))[0])
    assert math.fsum(np.exp(_poisson_log_term(lam, n + 1 + np.arange(400)))) <= budget
    assert n == 0 or not _poisson_certified(lam, budget, n - 1)
    assert n <= masters._TCL2_MAX_DEGREE
    if budget >= 1.0:
        assert n == 0


def test_poisson_degrees_past_the_cap_are_refused():
    lam = np.array([1e-3, 5.0, 1e-3])
    budget = np.full(lam.shape, masters._TAIL_WEIGHT)
    assert masters._poisson_degrees(lam, budget) is None
    assert masters._poisson_degrees(lam[[0, 2]], budget[[0, 2]]) is not None
    budget[1] = math.inf  # a sector of weight 0 takes degree 0 whatever its mean
    assert masters._poisson_degrees(lam, budget)[1] == 0


def _series_degrees(monkeypatch, p, fam):
    """The degree n_s of each sector in ``_tcl2_series``, checked against its term count."""
    used, poisson_degrees = [], masters._poisson_degrees
    with monkeypatch.context() as patch:
        patch.setattr(masters, "_poisson_degrees",
                      lambda *args: used.append(poisson_degrees(*args)) or used[-1])
        terms = masters._tcl2_series(p, fam)
    (degree,) = used
    assert sum(nu.size for _, nu in terms) == np.sum((degree + 1) * (degree + 2) // 2)
    return degree


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["A>0", "A<0"])
@pytest.mark.parametrize("alpha", [0.1, 0.5])
@pytest.mark.parametrize("n", [1, 2, 5, 101, 1000])
@pytest.mark.parametrize("family", ["m", "jm"])
def test_tcl2_series_drops_at_most_the_shared_tail_budget(monkeypatch, family, n, alpha, sign):
    # the S sectors share _TAIL_WEIGHT: sum_s w_s P(X_s > n_s), X_s ~ Poisson(lam_s),
    # summed term by term in log space, is at most _TAIL_WEIGHT, and each n_s is the
    # least degree whose certified tail is within the budget _TAIL_WEIGHT / (S w_s)
    p = SystemParams(N=n, A=sign * coupling_from_alpha(n, 1.0, alpha), omega0=1.0,
                     initial_p_plus=0.8, initial_coh=0.3 - 0.1j)
    fam = sector_family(p, family)
    degree = _series_degrees(monkeypatch, p, fam)
    lam = sum(np.divide(b, w * w, out=np.zeros(b.shape), where=b != 0.0)  # 0 where b = 0
              for b, w in ((fam.b_p, fam.om_p), (fam.b_m, fam.om_m)))
    budget = np.full(fam.w.shape, math.inf)
    budget[fam.w > 0] = masters._TAIL_WEIGHT / (fam.w.size * fam.w[fam.w > 0])
    k = degree[:, None] + 1 + np.arange(400)  # every tail term above 2^-1074
    dropped = fam.w[:, None] * np.exp(_poisson_log_term(lam[:, None], k))
    assert math.fsum(dropped[dropped > 0.0]) <= masters._TAIL_WEIGHT
    assert np.all(_poisson_certified(lam, budget, degree))
    assert not np.any(_poisson_certified(lam, budget, degree - 1) & (degree > 0))


def test_sectors_of_weight_zero_take_degree_zero_without_a_warning(monkeypatch):
    # at N = 2000 the m weights 2^-N binom(N, k) of 396 sectors underflow to 0
    p = SystemParams(N=2000, A=coupling_from_alpha(2000, 1.0, 0.1), omega0=1.0,
                     initial_p_plus=0.8, initial_coh=0.3 - 0.1j)
    fam = sector_family(p, "m")
    assert np.sum(fam.w == 0.0) == 396
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        degree = _series_degrees(monkeypatch, p, fam)
    assert np.all(degree[fam.w == 0.0] == 0) and degree.max() > 0


def test_a_detuning_whose_square_underflows_keeps_the_tiles():
    # Omega_+ = omega0 = 1e-170 at two_m = -1 (N = 1): b/Omega^2 is inf
    p = SystemParams(N=1, A=0.1, omega0=1e-170, initial_p_plus=0.8, initial_coh=0.3 - 0.1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert masters._tcl2_series(p, sector_family(p, "m")) is None


class TestTcl2ResonanceFallback:
    """At Omega_+ = 0 with b > 0 there is no series, and beside it the Poisson degree
    runs past the cap: the whole family keeps the tiles, bit for bit."""

    T = np.linspace(0.0, 5.0, 101)
    CASES = {f"d{delta:g}": -0.25 * (1.0 - delta) for delta in (0.0, 1e-9, 1e-7, 1e-5, 1e-2)}

    @pytest.mark.parametrize("family", ["m", "jm"])
    @pytest.mark.parametrize("a", CASES.values(), ids=CASES.keys())
    def test_family_keeps_the_tiles(self, monkeypatch, a, family):
        p = SystemParams(N=3, A=a, omega0=1.0, initial_p_plus=0.6, initial_coh=0.3 - 0.1j)
        fam = sector_family(p, family)
        assert 0.0 <= np.min(np.abs(fam.om_p)) <= 0.0101
        assert (a == -0.25) == bool(np.any(fam.om_p == 0.0))
        # the populations of a sector nearest resonance are coupled: pair_coef > 0
        nearest = np.abs(fam.om_p) == np.min(np.abs(fam.om_p))
        assert np.any(fam.pair_coef[nearest] > 0.0)
        assert masters._tcl2_series(p, fam) is None
        assert masters._tcl2_population_series(fam) is None
        calls = _exp_sum_calls(monkeypatch)
        traj = _solve(p, self.T, "tcl2", family)[0]
        assert calls == []
        coh, p_plus, *_ = _direct_tcl2(p, self.T, family)
        np.testing.assert_array_equal(traj.coh, coh)
        np.testing.assert_array_equal(traj.p_plus, p_plus)

    @pytest.mark.parametrize("family", ["m", "jm"])
    def test_a_resonance_without_coupling_keeps_the_series(self, monkeypatch, family):
        # N = 1, A = -0.25: Omega_+ = 0 at two_m = 1, where b_p = 0
        p = SystemParams(N=1, A=-0.25, omega0=1.0, initial_p_plus=0.6, initial_coh=0.3 - 0.1j)
        fam = sector_family(p, family)
        assert np.any(fam.om_p == 0.0) and np.all(fam.b_p[fam.om_p == 0.0] == 0.0)
        calls = _exp_sum_calls(monkeypatch)
        coh = _solve(p, self.T, "tcl2", family, populations=False)[0].coh
        assert len(calls) == 1
        assert coh[0] == p.initial_coh
        # t <= 5 and sum |amp nu| = 0.58: argument rounding stays below 1e-15
        assert np.max(np.abs(coh - _direct_tcl2(p, self.T, family)[0])) <= 1e-14


_CAPPED_CHILD = textwrap.dedent(
    """
    import numpy as np
    from spinstar.masters import {solver}
    from spinstar.sectors import SystemParams

    p = SystemParams(N=1000, A=0.1 / 2000, omega0=1.0, initial_p_plus=0.7)
    traj = {solver}(p, 0.5 * np.arange(16001))
    assert traj.p_plus[0] == 0.7 and np.all(np.abs(traj.p_plus - 0.5) <= 0.2)
    """
)


@pytest.mark.parametrize("solver", ["tcl2_population_m", "nz2_population_m"])
def test_large_bath_population_fits_a_memory_cap(run_capped, solver):
    # 1001 m sectors x 16001 times: one (sectors, times) float temporary is
    # 128 MB, and a whole-grid solution or closed form needs several at once
    proc = run_capped(_CAPPED_CHILD.format(solver=solver), cap_mib=256)
    assert proc.returncode == 0, proc.stderr[-2000:]

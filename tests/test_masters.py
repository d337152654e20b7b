import dataclasses
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import trajectory
from spinstar.exact import exact_population_plus, exact_trajectory
from spinstar.masters import (
    _frame_phase,
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
        t = np.linspace(0.0, 40.0, 81)
        bundles = [
            tcl2_population_m(PARAMS, t, return_sectors=True)[1],
            nz2_population_m(PARAMS, t, return_sectors=True)[1],
            tcl2_jm(PARAMS, t, return_sectors=True)[1],
            nz2_jm(PARAMS, t, return_sectors=True)[1],
        ]
        for bundle in bundles:
            q = j3tot_expectation(bundle)
            assert np.max(np.abs(q - q[0])) <= 1e-12

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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nz2_default_route_is_exact_hypothesis(data):
    p = _resonant_or_generic_params(data)
    t = np.linspace(0.0, 20.0, 81)
    np.testing.assert_allclose(
        nz2_jm(p, t).p_plus, exact_population_plus(p, t).p_plus, rtol=0, atol=1e-12
    )
    assert nz2_coherence_m(p, t).coh[0] == complex(p.initial_coh)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_solution_stays_positive_hypothesis(data):
    # a physical initial state stays physical: |coh|^2 <= p(1-p) along the exact solution
    p = _resonant_or_generic_params(data)
    traj = exact_trajectory(p, np.linspace(0.0, 40.0, 161))
    margin = np.abs(traj.coh) ** 2 - traj.p_plus * (1.0 - traj.p_plus)
    assert np.max(margin) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 7])
def test_decoupled_bath_leaves_the_state_constant(n):
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
    """The TCL2 closed forms run per time chunk; no chunking changes a bit."""

    CLOSED_FORMS = {"tcl2_jm": tcl2_jm, "tcl2_coherence_m": tcl2_coherence_m,
                    "tcl2_population_m": tcl2_population_m}
    T = np.linspace(0.0, 25.0, 127)

    @pytest.mark.parametrize("return_sectors", [False, True])
    @pytest.mark.parametrize("fn", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
    def test_chunked_closed_forms_are_bit_identical(self, monkeypatch, fn, return_sectors):
        whole = fn(PARAMS, self.T, return_sectors=return_sectors)
        n_sectors = 12  # the jm table of N = 5; 3 chunks of the m table (6 sectors)
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 16 * n_sectors * 5)
        assert len(list(trajectory._time_chunks(self.T.size, 16 * n_sectors))) == 26
        chunked = fn(PARAMS, self.T, return_sectors=return_sectors)
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

    @pytest.mark.parametrize("family", ["m", "jm"])
    @pytest.mark.parametrize("method", ["tcl2", "nz2"])
    def test_j3tot_series_equals_the_bundle_reduction(self, monkeypatch, method, family):
        # the series report.csv reads, built per chunk, against the whole bundle
        _, bundle, _ = _solve(PARAMS, self.T, method, family, sectors=True)
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 16 * 12 * 5)
        traj, none, q = _solve(PARAMS, self.T, method, family, j3tot=True)
        assert none is None and q.shape == self.T.shape
        np.testing.assert_array_equal(q, j3tot_expectation(bundle))
        assert traj.p_plus is not None and traj.coh is not None
        assert _solve(PARAMS, self.T, method, family)[2] is None


_CAPPED_CHILD = textwrap.dedent(
    """
    import numpy as np
    from spinstar.masters import tcl2_population_m
    from spinstar.sectors import SystemParams

    p = SystemParams(N=1000, A=0.1 / 2000, omega0=1.0, initial_p_plus=0.7)
    traj = tcl2_population_m(p, 0.5 * np.arange(16001))
    assert traj.p_plus[0] == 0.7 and np.all(np.abs(traj.p_plus - 0.5) <= 0.2)
    """
)


def test_large_bath_population_fits_a_memory_cap(run_capped):
    # 1001 m sectors x 16001 times: one (sectors, times) float temporary is
    # 128 MB and the unchunked closed form needs three of them at once
    proc = run_capped(_CAPPED_CHILD, cap_mib=256)
    assert proc.returncode == 0, proc.stderr[-2000:]

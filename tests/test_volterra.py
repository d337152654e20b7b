import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import masters, volterra
from spinstar.sectors import SystemParams, coupling_from_alpha, sector_family
from spinstar.volterra import (
    NumericsError,
    SolveOptions,
    integrate_linear_ode,
    solve_volterra_batch,
)


def cosine_kernel_solution(x0, big_k, omega, t):
    """Analytic solution for k(tau) = K cos(Omega tau), from the Laplace transform.

    x(t) = x0 [ Omega^2/(Omega^2+K) + K/(Omega^2+K) cos(sqrt(Omega^2+K) t) ].
    """
    s2 = omega * omega + big_k
    return x0 * (omega * omega / s2 + (big_k / s2) * np.cos(np.sqrt(s2) * t))


def cosine_spec(big_k, omega):
    """The terms (a_i, r_i) of k(tau) = K cos(Omega tau)."""
    return ((0.5 * big_k, 1j * omega), (0.5 * big_k, -1j * omega))


def solve_one(x0, terms, times, opts=None):
    """``solve_volterra_batch`` on a batch of one problem with the kernel terms (a_i, r_i)."""
    amps, rates = zip(*terms)
    return solve_volterra_batch([x0], [amps], [rates], times, opts)[0]


T_GRID = np.linspace(0.0, 5.0, 51)


class TestAnalyticCases:
    def test_zero_kernel_is_constant(self):
        spec = ((0.0, 0.0),)
        for method in ("aux_ode", "quadrature"):
            x = solve_one(1.7 - 0.3j, spec, T_GRID, SolveOptions(method=method))
            np.testing.assert_allclose(x, 1.7 - 0.3j, rtol=0, atol=1e-12)

    def test_constant_kernel_gives_cosine(self):
        # k(tau) = a  =>  x'' = -a x  =>  x = x0 cos(sqrt(a) t)
        a = 2.3
        spec = ((a, 0.0),)
        for method in ("aux_ode", "quadrature"):
            x = solve_one(
                1.0, spec, T_GRID, SolveOptions(step=0.002, method=method)
            )
            np.testing.assert_allclose(
                x.real, np.cos(np.sqrt(a) * T_GRID), rtol=0, atol=2e-5
            )
            np.testing.assert_allclose(x.imag, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["aux_ode", "quadrature"])
    def test_cosine_kernel_laplace_oracle(self, method):
        big_k, omega = 0.7, 1.3
        x = solve_one(
            1.0, cosine_spec(big_k, omega), T_GRID,
            SolveOptions(step=0.001, method=method),
        )
        expected = cosine_kernel_solution(1.0, big_k, omega, T_GRID)
        np.testing.assert_allclose(x.real, expected, rtol=0, atol=2e-7)
        np.testing.assert_allclose(x.imag, 0.0, rtol=0, atol=1e-10)


class TestConvergence:
    # steps are chosen to divide the output interval 0.1 exactly, so that
    # halving the step genuinely halves the substep width
    STEPS = (0.05, 0.025, 0.0125, 0.00625)

    def _errors(self, method):
        big_k, omega = 0.7, 1.3
        t = np.linspace(0.0, 5.0, 51)
        expected = cosine_kernel_solution(1.0, big_k, omega, t)
        errs = []
        for h in self.STEPS:
            x = solve_one(
                1.0, cosine_spec(big_k, omega), t,
                SolveOptions(step=h, method=method),
            )
            errs.append(float(np.max(np.abs(x - expected))))
        return errs

    def test_aux_ode_is_fourth_order(self):
        errs = self._errors("aux_ode")
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.7  # nominal factor 16

    def test_quadrature_is_second_order(self):
        errs = self._errors("quadrature")
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.7  # nominal factor 4


class TestCrossMethod:
    def test_aux_vs_quadrature_complex_rates(self):
        # coherence-type kernel: two complex exponentials, complex x0
        spec = ((0.02, 1.2j), (0.05, -0.8j))
        xa = solve_one(
            0.5 + 0.5j, spec, T_GRID, SolveOptions(step=0.002, method="aux_ode")
        )
        xq = solve_one(
            0.5 + 0.5j, spec, T_GRID, SolveOptions(step=0.002, method="quadrature")
        )
        np.testing.assert_allclose(xa, xq, rtol=0, atol=1e-7)


class TestBatchSemantics:
    def test_batch_matches_scalar_solves(self):
        amps = np.array([[0.35, 0.35], [0.02, 0.05]], dtype=complex)
        rates = np.array([[1.3j, -1.3j], [1.2j, -0.8j]])
        x0 = np.array([1.0, 0.5 + 0.5j])
        xb = solve_volterra_batch(x0, amps, rates, T_GRID, SolveOptions(step=0.01))
        for p in range(2):
            spec = tuple(zip(amps[p], rates[p]))
            xs = solve_one(x0[p], spec, T_GRID, SolveOptions(step=0.01))
            np.testing.assert_allclose(xb[p], xs, rtol=0, atol=1e-13)

    def test_linearity(self):
        spec = ((0.35, 1.3j), (0.35, -1.3j))
        opts = SolveOptions(step=0.01)
        x1 = solve_one(1.0, spec, T_GRID, opts)
        x2 = solve_one(2.0 - 1.0j, spec, T_GRID, opts)
        np.testing.assert_allclose(x2, (2.0 - 1.0j) * x1, rtol=1e-12, atol=1e-13)

    def test_single_time_point(self):
        x = solve_one(0.3j, cosine_spec(1.0, 1.0), np.array([0.0]))
        np.testing.assert_array_equal(x, [0.3j])


@pytest.mark.parametrize("nz2_shaped", [True, False], ids=["nz2-shaped", "general"])
@pytest.mark.parametrize("n_terms", [1, 2, 3])
def test_aux_ode_generator_equals_the_term_by_term_rhs(n_terms, nz2_shaped):
    # the aux-ODE route applies one (K+1) x (K+1) generator per problem; the
    # reference forms x' = -sum_i a_i u_i and u_i' = r_i u_i + x term by term.
    # On NZ2's kernels (a_i >= 0, r_i imaginary) every product rounds the same,
    # so the bits agree; on general complex kernels they agree to rounding.
    rng = np.random.default_rng(n_terms)
    amps = rng.uniform(0.0, 1.0, (4, n_terms)) + 0j
    rates = 1j * rng.uniform(-2.0, 2.0, (4, n_terms))
    if not nz2_shaped:
        amps += 1j * rng.uniform(-0.1, 0.1, (4, n_terms))
        rates += rng.uniform(-0.2, 0.0, (4, n_terms))
    x0 = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)

    def rhs(t, y):
        u = y[:, 1:]
        du = rates * u + y[:, :1]
        return np.concatenate((-np.add.reduce(amps * u, axis=1)[:, None], du), axis=1)

    y0 = np.zeros((4, n_terms + 1), dtype=complex)
    y0[:, 0] = x0
    opts = SolveOptions(step=0.01)
    reference = integrate_linear_ode(y0, rhs, T_GRID, opts)[:, :, 0].T
    x = solve_volterra_batch(x0, amps, rates, T_GRID, opts)
    if nz2_shaped:
        np.testing.assert_array_equal(x, reference)
    else:
        np.testing.assert_allclose(x, reference, rtol=0, atol=1e-14)


def test_phase_norm_drift_over_many_periods():
    # pure rotation y' = i y over 100 periods: |y| must stay pinned to 1
    def rhs(t, y):
        return 1j * y

    t = np.linspace(0.0, 200.0 * np.pi, 201)
    ys = integrate_linear_ode(np.array([1.0 + 0.0j]), rhs, t, SolveOptions(step=0.005))
    drift = np.max(np.abs(np.abs(ys[:, 0]) - 1.0))
    assert drift <= 1e-10


class TestStepControl:
    def test_tolerance_refines_and_converges(self):
        big_k, omega = 0.7, 1.3
        t = np.linspace(0.0, 5.0, 26)
        x = solve_one(
            1.0, cosine_spec(big_k, omega), t,
            SolveOptions(step=0.1, tolerance=1e-9),
        )
        expected = cosine_kernel_solution(1.0, big_k, omega, t)
        np.testing.assert_allclose(x.real, expected, rtol=0, atol=1e-8)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(NumericsError, match="halving"):
            solve_one(
                1.0, cosine_spec(0.7, 1.3), np.linspace(0.0, 1.0, 3),
                SolveOptions(step=0.5, tolerance=1e-30, max_halvings=3),
            )

    def test_step_clamped_to_output_grid(self):
        # a step far wider than the grid must not bypass the error control
        big_k, omega = 0.7, 1.3
        t = np.linspace(0.0, 5.0, 51)
        x = solve_one(
            1.0, cosine_spec(big_k, omega), t,
            SolveOptions(step=50.0, tolerance=1e-9),
        )
        expected = cosine_kernel_solution(1.0, big_k, omega, t)
        np.testing.assert_allclose(x.real, expected, rtol=0, atol=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["aux_ode", "quadrature"])
    def test_overflowing_kernel_raises(self, method):
        spec = ((1.0, 500.0),)  # e^{500 tau}: overflows fast
        with pytest.raises(NumericsError):
            solve_one(
                1.0, spec, np.linspace(0.0, 40.0, 11),
                SolveOptions(step=0.5, method=method),
            )


class TestValidation:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            solve_one(1.0, cosine_spec(1.0, 1.0), np.array([1.0, 2.0]))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            solve_one(1.0, cosine_spec(1.0, 1.0), np.array([0.0, 2.0, 1.0]))

    def test_quadrature_requires_uniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.35])
        with pytest.raises(ValueError, match="uniform"):
            solve_one(
                1.0, cosine_spec(1.0, 1.0), t, SolveOptions(method="quadrature")
            )

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(step=0.0)
        with pytest.raises(ValueError):
            SolveOptions(method="magic")
        with pytest.raises(ValueError):
            SolveOptions(tolerance=-1.0)

    def test_quadrature_rejects_a_tolerance(self):
        # the quadrature route runs one fixed-step pass and has no step halving
        with pytest.raises(ValueError, match="tolerance"):
            SolveOptions(method="quadrature", tolerance=1e-8)
        assert SolveOptions(method="quadrature").tolerance is None

    def test_non_finite_kernel_terms_raise(self):
        # a non-finite term is a numeric failure of the batch, before any route runs
        with pytest.raises(NumericsError, match="non-finite"):
            solve_one(1.0, ((np.inf, 0.0),), T_GRID)
        with pytest.raises(NumericsError, match="non-finite"):
            solve_one(1.0, ((1.0, np.nan),), T_GRID)

    def test_batch_shape_mismatch(self):
        with pytest.raises(ValueError, match="batch"):
            solve_volterra_batch(
                np.array([1.0]),
                np.zeros((2, 2), dtype=complex),
                np.zeros((2, 2), dtype=complex),
                T_GRID,
            )

    @pytest.mark.parametrize(
        "x0,amplitude,rate",
        [([np.inf], [[1.0]], [[1j]]), ([1.0], [[np.inf]], [[1j]]),
         ([1.0], [[1.0]], [[complex(0.0, np.inf)]])],
        ids=["x0", "amplitude", "rate"],
    )
    def test_non_finite_inputs_raise(self, x0, amplitude, rate):
        # each kernel qualifies for the spectral route, whose eigh would see the infinity
        with pytest.raises(NumericsError, match="non-finite"):
            solve_volterra_batch(np.array(x0), np.array(amplitude), np.array(rate), T_GRID)


class TestSpectralRoute:
    """opts=None on kernels with amplitudes >= 0 and imaginary rates: exact eigensolve."""

    def test_cosine_kernel_laplace_oracle(self):
        big_k, omega = 0.7, 1.3
        x = solve_one(1.0, cosine_spec(big_k, omega), T_GRID)
        expected = cosine_kernel_solution(1.0, big_k, omega, T_GRID)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("solver", ["nz2_population_m", "nz2_coherence_m"])
    def test_production_nz2_m_kernel_matches_rk4_and_quadrature(self, solver):
        p = SystemParams(N=21, A=coupling_from_alpha(21, 1.0, 0.5), omega0=1.0,
                         initial_p_plus=0.8, initial_coh=0.3 + 0.2j)
        t = np.linspace(0.0, 10.0, 101)
        run = getattr(masters, solver)
        field = "p_plus" if solver == "nz2_population_m" else "coh"
        spectral = getattr(run(p, t), field)
        rk4 = getattr(run(p, t, opts=SolveOptions(step=0.001)), field)
        quad = getattr(run(p, t, opts=SolveOptions(step=0.001, method="quadrature")), field)
        np.testing.assert_allclose(spectral, rk4, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spectral, quad, rtol=0, atol=1e-8)

    def test_geometric_grid_agrees_with_uniform_grid(self):
        spec = ((0.02, 1.2j), (0.05, -0.8j), (0.3, 0.0j))
        uniform = 0.1 * np.arange(65)
        geometric = np.concatenate(([0.0], 0.1 * 2.0 ** np.arange(7)))  # 0.1 .. 6.4
        xu = solve_one(0.5 + 0.5j, spec, uniform)
        xg = solve_one(0.5 + 0.5j, spec, geometric)
        shared = np.searchsorted(uniform, geometric)
        np.testing.assert_array_equal(uniform[shared], geometric)
        np.testing.assert_array_equal(xg, xu[shared])

    def test_zero_kernel_is_exactly_constant(self):
        spec = ((0.0, 1.3j), (0.0, -0.4j))
        np.testing.assert_array_equal(solve_one(1.7 - 0.3j, spec, T_GRID), 1.7 - 0.3j)

    @pytest.mark.parametrize("terms", [((2.3, 0j),), ((1.15, 0j), (1.15, 0j))])
    def test_exact_resonance_gives_cosine(self, terms):
        # k(tau) = 2.3 at w = 0, also split into two degenerate terms
        x = solve_one(1.0, terms, T_GRID)
        np.testing.assert_allclose(x, np.cos(np.sqrt(2.3) * T_GRID), rtol=0, atol=1e-14)

    def test_zero_amplitude_terms_drop_out(self):
        base = cosine_spec(0.7, 1.3)
        padded = base + ((0.0, 0.7j), (0.0, 0j))
        np.testing.assert_allclose(
            solve_one(1.0, padded, T_GRID), solve_one(1.0, base, T_GRID),
            rtol=0, atol=1e-14,
        )

    def test_initial_value_is_bit_exact(self):
        x0 = np.array([0.3 - 0.7j, -1.1 + 0.2j, 1e-300 + 0j])
        amps = np.array([[0.35, 0.35], [0.02, 0.05], [5.0, 0.0]], dtype=complex)
        rates = np.array([[1.3j, -1.3j], [1.2j, -0.8j], [0j, 2j]])
        x = solve_volterra_batch(x0, amps, rates, T_GRID)
        np.testing.assert_array_equal(x[:, 0], x0)

    @pytest.mark.parametrize("terms", [((0.3, -0.2 + 1.0j),), ((-0.3, 1.0j), (0.2, -1.0j)),
                                       ((0.3 + 0.1j, 1.0j),)])
    def test_other_kernels_keep_the_rk4_default(self, terms):
        np.testing.assert_array_equal(
            solve_one(0.5 + 0.5j, terms, T_GRID),
            solve_one(0.5 + 0.5j, terms, T_GRID, SolveOptions()),
        )

    def test_non_orthonormal_eigenvectors_raise(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(h):
            lam, vec = eigh(h)
            return lam, 1.01 * vec

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericsError, match="weight-sum") as info:
            solve_one(1.0, cosine_spec(0.7, 1.3), T_GRID)
        assert info.value.route == "spectral"
        assert info.value.error == pytest.approx(0.0201, rel=1e-6)
        assert info.value.step is None and info.value.halvings is None


GRIDS = {"uniform": 0.5 * np.arange(2001),
         "geometric": np.concatenate([[0.0], np.geomspace(0.01, 900.0, 500)])}


@pytest.mark.parametrize("t", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("family", ["m", "jm"])
@pytest.mark.parametrize("n", [1, 5, 101])
def test_real_expm1_sum_equals_the_real_part_of_the_complex_one(n, family, t):
    # the population tiles sum -2 sin^2(y/2), the real part of expm1(-i y), in real arithmetic
    p = SystemParams(N=n, A=coupling_from_alpha(n, 1.0, 0.5), omega0=1.0)
    fam = sector_family(p, family)
    half = 0.5 * fam.pair_coef
    amps = np.stack([half, half], axis=1).astype(complex)
    lam, wts = volterra._arrowhead_spectrum(amps, np.stack([1j * fam.om_p, -1j * fam.om_p], 1))
    shape = (fam.w.size, t.size)
    complex_sum = volterra._expm1_sum(lam, wts, t, np.empty(shape, complex),
                                      np.empty(shape, complex))
    real_sum = volterra._expm1_sum(lam, wts, t, np.empty(shape), np.empty(shape, complex))
    np.testing.assert_array_equal(real_sum, complex_sum.real)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_spectral_route_is_bounded_by_x0_hypothesis(data):
    # the weights |V_0k|^2 are >= 0 and sum to 1, so |x(t)| <= |x0|
    n_prob = data.draw(st.integers(1, 6), label="P")
    n_terms = data.draw(st.integers(1, 4), label="K")
    size = n_prob * n_terms
    amp = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    amps = np.array(data.draw(st.lists(amp, min_size=size, max_size=size), label="a"))
    # rates i w n with small integers n: repeated rates, w = 0 and n = 0 all occur
    w = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="w")
    n = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    part = st.floats(-2.0, 2.0, allow_subnormal=False)
    x0 = np.array([complex(data.draw(part), data.draw(part)) for _ in range(n_prob)])
    n_times = data.draw(st.integers(2, 40), label="n_times")
    if data.draw(st.booleans(), label="geometric"):
        t1 = data.draw(st.floats(1e-3, 1.0), label="t1")
        ratio = data.draw(st.floats(1.1, 2.0), label="ratio")
        t = np.concatenate(([0.0], t1 * ratio ** np.arange(n_times - 1)))
    else:
        t = data.draw(st.floats(0.01, 2.0), label="dt") * np.arange(n_times)
    x = solve_volterra_batch(
        x0, amps.reshape(n_prob, n_terms), 1j * w * n.reshape(n_prob, n_terms), t
    )
    np.testing.assert_array_equal(x[:, 0], x0)
    assert np.all(np.abs(x) <= np.abs(x0)[:, None] * (1.0 + 1e-12))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arrowhead_weights_sum_to_one_hypothesis(data):
    # the weights |V_0k|^2 are the first components of an orthonormal
    # eigenbasis: they sum to 1, so the spectral solution keeps |x(t)| <= |x0|
    n_prob = data.draw(st.integers(1, 6), label="P")
    n_terms = data.draw(st.integers(1, 5), label="K")
    size = n_prob * n_terms
    amp = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    amps = np.array(data.draw(st.lists(amp, min_size=size, max_size=size), label="a"))
    freq = st.one_of(st.just(0.0), st.floats(-20.0, 20.0))
    w = np.array(data.draw(st.lists(freq, min_size=size, max_size=size), label="w"))
    amps, rates = amps.reshape(n_prob, n_terms), 1j * w.reshape(n_prob, n_terms)
    lam, wts = volterra._arrowhead_spectrum(amps, rates)
    assert lam.shape == wts.shape == (n_prob, n_terms + 1)
    assert np.all(wts >= 0.0)
    assert np.max(np.abs(wts.sum(axis=1) - 1.0)) <= 1e-12
    x0 = np.linspace(1.0, 2.0, n_prob) * np.exp(0.7j * np.arange(n_prob))
    t = np.linspace(0.0, 10.0, 41)
    x = solve_volterra_batch(x0, amps, rates, t)
    np.testing.assert_array_equal(x[:, 0], x0)
    assert np.all(np.abs(x) <= np.abs(x0)[:, None] * (1.0 + 1e-12))

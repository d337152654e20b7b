"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with the measured
figure of merit next to the tolerance it is held against.  Scenario constants
(N=101, omega0=1, the alpha values, the initial states) are the published
comparison setups; the sup-norm pins for the qualitative scenarios live in
``spinstar.goldens`` with their measured values documented.
"""

import math
import time
import warnings

import numpy as np

from spinstar import goldens
from spinstar.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    main as cli_main,
)
from spinstar.exact import exact_coherence, exact_population_plus, exact_trajectory
from spinstar.masters import (
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
from spinstar.oracle import check_plp_zero, check_projection_conditions, propagate
from spinstar.sectors import (
    SystemParams,
    coupling_from_alpha,
    prob_j_array,
    weights_m_array,
)
from spinstar.volterra import SolveOptions, solve_volterra_batch


def verdict(num, ok, description, detail):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {description}: {detail}"
    print("\n" + line)
    assert ok, line


def grid(t_max, dt):
    return dt * np.arange(int(round(t_max / dt)) + 1)


def sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def params_coh(N, alpha_value, omega0=1.0):
    """Published coherence setup: pure state (p_plus, coh) = (1/2, 1/2)."""
    return SystemParams(
        N=N, A=coupling_from_alpha(N, omega0, alpha_value), omega0=omega0,
        initial_p_plus=0.5, initial_coh=0.5,
    )


def params_pop(N, alpha_value, omega0=1.0):
    """Published population setup: excited central spin."""
    return SystemParams(
        N=N, A=coupling_from_alpha(N, omega0, alpha_value), omega0=omega0,
        initial_p_plus=1.0,
    )


def test_criterion_1_exact_matches_oracle():
    """Closed-form exact solution vs the spectral oracle at small N."""
    t0 = time.perf_counter()
    t = grid(100.0, 0.1)
    worst = 0.0
    for N in (2, 4, 6, 8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # p0=1, coh=1/2 is not PSD, on purpose
            p = SystemParams(N=N, A=0.1, omega0=1.0, initial_p_plus=1.0,
                             initial_coh=0.5)
        got = exact_trajectory(p, t)
        ref = propagate(p, t)
        worst = max(worst, sup(got.p_plus, ref.p_plus), sup(got.coh, ref.coh))
    elapsed = time.perf_counter() - t0
    verdict(
        1, worst <= 1e-8 and elapsed < 120.0,
        "exact solution vs oracle, N in {2,4,6,8}, A=0.1, t<=100",
        f"sup err {worst:.3e} (tol 1e-8), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_nz2_jm_populations_are_exact():
    """NZ2 populations under the (j, m) projection reproduce the exact dynamics."""
    t = grid(100.0, 0.1)
    worst_default = worst_tight = 0.0
    for N in (4, 8, 21):
        for a in (0.1, 0.5):
            p = params_pop(N, a)
            exact = exact_population_plus(p, t).p_plus
            got = nz2_jm(p, t).p_plus
            worst_default = max(worst_default, sup(got, exact))
            tight = nz2_jm(p, t, opts=SolveOptions(step=0.001)).p_plus
            worst_tight = max(worst_tight, sup(tight, exact))
    verdict(
        2, worst_default <= 1e-6 and worst_tight <= 1e-8,
        "NZ2-jm populations vs exact, N in {4,8,21} x alpha in {0.1,0.5}, t<=100",
        f"sup err {worst_default:.3e} default (tol 1e-6), "
        f"{worst_tight:.3e} tightened (tol 1e-8)",
    )


def test_criterion_3_weight_normalization():
    """Sector weights and spin-size probabilities each sum to 1 up to large N."""
    t0 = time.perf_counter()
    worst = 0.0
    for N in list(range(1, 201)) + [500, 1000, 2000]:
        worst = max(
            worst,
            abs(float(weights_m_array(N).sum()) - 1.0),
            abs(float(prob_j_array(N).sum()) - 1.0),
        )
    elapsed = time.perf_counter() - t0
    verdict(
        3, worst <= 1e-12 and elapsed < 5.0,
        "sum_m w_m = sum_j p(j) = 1 for N in {1..200, 500, 1000, 2000}",
        f"max defect {worst:.3e} (tol 1e-12), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_4_conservation_laws():
    """Trace and <J_3^tot> are conserved by every projection solver."""
    p = params_pop(21, 0.5)
    t = grid(200.0, 0.1)
    runs = [
        ("tcl2-m", tcl2_population_m(p, t, return_sectors=True)),
        ("nz2-m", nz2_population_m(p, t, return_sectors=True)),
        ("tcl2-jm", tcl2_jm(p, t, return_sectors=True)),
        ("nz2-jm", nz2_jm(p, t, return_sectors=True)),
    ]
    worst_trace = worst_j3 = 0.0
    for _, (traj, bundle) in runs:
        worst_trace = max(worst_trace, traj.trace_drift())
        q = j3tot_expectation(bundle)
        worst_j3 = max(worst_j3, float(np.max(np.abs(q - q[0]))))
    verdict(
        4, worst_trace <= 1e-9 and worst_j3 <= 1e-9,
        "trace and J_3^tot drift, all four sector solvers, N=21, alpha=0.5, t<=200",
        f"trace drift {worst_trace:.3e}, J3 drift {worst_j3:.3e} (tol 1e-9)",
    )


def test_criterion_5_tcl2_closed_forms():
    """TCL2 exp(-Lambda) closed forms vs direct integration of the time-local equations."""
    t = grid(50.0, 0.1)
    worst = 0.0
    for a in (0.1, 0.5):
        p = SystemParams(
            N=21, A=coupling_from_alpha(21, 1.0, a), omega0=1.0,
            initial_p_plus=0.7, initial_coh=0.25 - 0.1j,
        )
        for family in ("m", "jm"):
            closed = tcl2_coherence_m(p, t) if family == "m" else tcl2_jm(p, t)
            worst = max(
                worst, sup(closed.coh, tcl2_coherence_via_ode(p, t, family).coh)
            )
            closed_p = tcl2_population_m(p, t) if family == "m" else tcl2_jm(p, t)
            worst = max(
                worst,
                sup(closed_p.p_plus, tcl2_population_via_ode(p, t, family).p_plus),
            )
    verdict(
        5, worst <= 1e-8,
        "TCL2 closed forms vs time-local ODE route, N=21, alpha in {0.1,0.5}, m and jm",
        f"sup err {worst:.3e} (tol 1e-8)",
    )


def test_criterion_6_published_comparison_scenarios():
    """Qualitative N=101 behavior: method agreement/ordering and revival times."""
    t0 = time.perf_counter()
    failures = []

    # (a) alpha=0.1 coherence: NZ2 and TCL2 hardly distinguishable, both near exact
    p = params_coh(101, 0.1)
    t = grid(600.0, 0.1)
    coh_exact = exact_coherence(p, t).coh
    coh_tcl2 = tcl2_coherence_m(p, t).coh
    coh_nz2 = nz2_coherence_m(p, t).coh
    d_methods = sup(coh_nz2, coh_tcl2)
    d_tcl2 = sup(coh_tcl2, coh_exact)
    if d_methods > goldens.NZ2_TCL2_COH_SUP_ALPHA01:
        failures.append(f"nz2-tcl2 coherence gap {d_methods:.3e}")
    if d_tcl2 > goldens.TCL2_M_COH_SUP_ALPHA01:
        failures.append(f"tcl2 coherence error {d_tcl2:.3e}")

    # (b) alpha=0.5 populations: correlated projection beats the product one
    p5 = params_pop(101, 0.5)
    t5 = grid(300.0, 0.1)
    pop_exact = exact_population_plus(p5, t5).p_plus
    err_tcl2_05 = sup(tcl2_population_m(p5, t5).p_plus, pop_exact)
    err_std = sup(standard_projection_population(p5, t5).p_plus, pop_exact)
    if not err_std > err_tcl2_05:
        failures.append(f"standard ({err_std:.3e}) not worse than tcl2 ({err_tcl2_05:.3e})")
    if err_tcl2_05 > goldens.TCL2_M_POP_SUP_ALPHA05:
        failures.append(f"tcl2 population error {err_tcl2_05:.3e}")

    # alpha-monotonicity of the TCL2 population error
    p1 = params_pop(101, 0.1)
    err_tcl2_01 = sup(
        tcl2_population_m(p1, t5).p_plus, exact_population_plus(p1, t5).p_plus
    )
    if not err_tcl2_01 < err_tcl2_05:
        failures.append(
            f"tcl2 error not increasing in alpha ({err_tcl2_01:.3e} vs {err_tcl2_05:.3e})"
        )

    # (c) coherence revival at t ~ pi/(2A) reproduced at the right position
    t_rev = math.pi / (2.0 * p.A)
    tr = np.arange(0.5 * t_rev, 1.5 * t_rev, 0.5)
    rev_exact = tr[np.argmax(np.abs(exact_coherence(p, tr).coh))]
    rev_tcl2 = tr[np.argmax(np.abs(tcl2_coherence_m(p, tr).coh))]
    if abs(rev_exact - rev_tcl2) > goldens.REVIVAL_TIME_ABS_TOL:
        failures.append(f"revival at {rev_tcl2:.1f} vs {rev_exact:.1f}")

    # jm projection stays accurate through the revivals on the long window
    tl = grid(8000.0, 0.5)
    d_jm = sup(tcl2_jm(p, tl).coh, exact_coherence(p, tl).coh)
    if d_jm > goldens.TCL2_JM_COH_SUP_ALPHA01:
        failures.append(f"tcl2-jm long-window coherence error {d_jm:.3e}")

    # (d) strong coupling, small bath: NZ2 and TCL2 visibly separate but bounded
    p21 = SystemParams(N=21, A=0.02, omega0=1.0, initial_p_plus=1.0)
    t21 = grid(200.0, 0.1)
    d_pop = sup(
        nz2_population_m(p21, t21).p_plus, tcl2_population_m(p21, t21).p_plus
    )
    if d_pop > goldens.NZ2_TCL2_POP_SUP_N21:
        failures.append(f"nz2-tcl2 population gap {d_pop:.3e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.0f}s")
    verdict(
        6, not failures,
        "published N=101 comparison scenarios",
        "; ".join(failures) if failures else
        f"all orderings and pinned sup norms hold, revival at t={rev_exact:.1f}, "
        f"{elapsed:.0f}s (limit 120s)",
    )


def test_criterion_7_volterra_engine():
    """Solver routes agree on production kernels; both converge at design order."""
    # agreement of the O(T) and O(T^2) routes on every production solve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p_pop = SystemParams(
            N=21, A=coupling_from_alpha(21, 1.0, 0.5), omega0=1.0,
            initial_p_plus=1.0, initial_coh=0.5,
        )
    t = grid(10.0, 0.1)
    worst = 0.0
    for method_pair in (
        lambda o: nz2_population_m(p_pop, t, opts=o).p_plus,
        lambda o: nz2_coherence_m(p_pop, t, opts=o).coh,
        lambda o: nz2_jm(p_pop, t, opts=o).p_plus,
        lambda o: nz2_jm(p_pop, t, opts=o).coh,
    ):
        a = method_pair(SolveOptions(step=0.002, method="aux_ode"))
        q = method_pair(SolveOptions(step=0.002, method="quadrature"))
        worst = max(worst, sup(a, q))

    # convergence order against the Laplace-transform solution of the
    # cosine kernel; steps divide the output interval so halving is exact
    big_k, omega = 0.7, 1.3
    tc = np.linspace(0.0, 5.0, 51)
    s2 = omega**2 + big_k
    analytic = omega**2 / s2 + (big_k / s2) * np.cos(np.sqrt(s2) * tc)
    amps, rates = [[0.5 * big_k, 0.5 * big_k]], [[1j * omega, -1j * omega]]
    min_factor = np.inf
    for method in ("aux_ode", "quadrature"):
        errs = [
            float(np.max(np.abs(
                solve_volterra_batch([1.0], amps, rates, tc,
                                     SolveOptions(step=h, method=method))[0] - analytic
            )))
            for h in (0.05, 0.025, 0.0125, 0.00625)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            min_factor = min(min_factor, coarse / fine)
    verdict(
        7, worst <= 1e-6 and min_factor >= 3.7,
        "Volterra engine: route agreement and step-halving convergence",
        f"aux-ode vs quadrature sup gap {worst:.3e} (tol 1e-6), "
        f"worst halving factor {min_factor:.2f} (needs >= 3.7)",
    )


def test_criterion_8_projection_consistency():
    """Projection families satisfy their defining conditions; broken ones do not."""
    failures = []
    for N in (2, 4, 6):
        for family in ("m", "jm", "product"):
            rep = check_projection_conditions(N, family)
            if (
                rep.idempotency_defect > 1e-10
                or rep.trace_defect > 1e-10
                or rep.min_choi_eigenvalue < -1e-10
                or (family != "product" and rep.j3_invariance_defect > 1e-10)
            ):
                failures.append(f"{family}@N={N}")
            if family == "jm" and rep.j2_invariance_defect > 1e-10:
                failures.append(f"jm J^2 invariance @N={N}")
    bad = check_projection_conditions(4, "m", corrupt_normalization=True)
    if bad.idempotency_defect <= 0.1:
        failures.append("corrupted family not detected")

    p = SystemParams(N=3, A=0.2, omega0=1.0)
    for family in ("m", "jm", "product"):
        if check_plp_zero(p, family=family, n_samples=4) > 1e-12:
            failures.append(f"PLP != 0 for {family}")
    if check_plp_zero(p, family="m", interaction="full", n_samples=4) <= 0.1:
        failures.append("full-interaction negative control")
    if check_plp_zero(p, family="product", interaction="full",
                      product_bath="polarized", n_samples=4) <= 0.1:
        failures.append("polarized-bath negative control")
    verdict(
        8, not failures,
        "projection conditions and first-order-term checks, N in {2,4,6} + controls",
        "; ".join(failures) if failures else
        "all families consistent, both negative controls detected",
    )


def test_criterion_9_cli_contract(tmp_path):
    """CLI determinism and the documented exit codes 0/2/3/4."""
    base = (
        "N = 4\nomega0 = 1.0\nA = 0.1\nt_max = 5.0\ndt = 0.5\n"
        "methods = exact,tcl2,nz2,oracle\nprojection = jm\n"
    )
    good = tmp_path / "good.cfg"
    good.write_text(base)
    failures = []

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    if cli_main(["run", "--config", str(good), "--out", str(out1)]) != EXIT_OK:
        failures.append("exit 0")
    cli_main(["run", "--config", str(good), "--out", str(out2)])
    for f in sorted(out1.iterdir()):
        if f.read_bytes() != (out2 / f.name).read_bytes():
            failures.append(f"non-deterministic output {f.name}")

    if cli_main(["compare", "--config", str(good), "--out", str(tmp_path / "c")]) != EXIT_OK:
        failures.append("compare exit 0")
    if not (tmp_path / "c" / "report.csv").exists():
        failures.append("report.csv missing")

    bad = tmp_path / "bad.cfg"
    bad.write_text(base + "alpha = 0.5\n")
    if cli_main(["run", "--config", str(bad)]) != EXIT_CONFIG:
        failures.append("exit 2")

    hard = tmp_path / "hard.cfg"
    hard.write_text(
        "N = 4\nomega0 = 1.0\nA = 0.1\nt_max = 2.0\ndt = 0.5\nmethods = nz2\n"
        "solver_step = 50\nsolver_tolerance = 1e-30\n"
    )
    if cli_main(["run", "--config", str(hard), "--out", str(tmp_path / "h")]) != EXIT_NUMERIC:
        failures.append("exit 3")

    big = tmp_path / "big.cfg"
    big.write_text(
        "N = 15\nomega0 = 1.0\nA = 0.1\nt_max = 2.0\ndt = 0.5\nmethods = oracle\n"
    )
    if cli_main(["run", "--config", str(big)]) != EXIT_CAPACITY:
        failures.append("exit 4")
    verdict(
        9, not failures,
        "CLI determinism and exit codes 0/2/3/4",
        "; ".join(failures) if failures else
        "byte-identical reruns; config/numeric/capacity failures map to 2/3/4",
    )

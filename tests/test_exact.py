import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from spinstar import exact, goldens, trajectory
from spinstar.exact import exact_coherence, exact_population_plus, exact_trajectory
from spinstar.masters import tcl2_jm
from spinstar.oracle import propagate
from spinstar.sectors import SystemParams, coupling_from_alpha, sector_family


def two_spin_survival(A, omega0, t):
    """Independent N=2 formula: the only flipping sectors are (j=1, m=0) and (j=1, m=-1).

    F(t) = 1 - w [4A^2 b / mu^2] sin^2(mu t) summed over the two sectors,
    with w = 1/4, b = 2 for both.
    """
    mu1 = math.sqrt(0.25 * (omega0 + 2 * A) ** 2 + 8 * A * A)  # (j=1, m=0)
    mu2 = math.sqrt(0.25 * (omega0 - 2 * A) ** 2 + 8 * A * A)  # (j=1, m=-1)
    return (
        1.0
        - 2 * A * A * np.sin(mu1 * t) ** 2 / mu1**2
        - 2 * A * A * np.sin(mu2 * t) ** 2 / mu2**2
    )


class TestSurvival:
    def test_frozen_two_spin_value(self):
        p = SystemParams(N=2, A=0.1, omega0=1.0, initial_p_plus=1.0)
        traj = exact_population_plus(p, np.array([0.0, 1.0]))
        assert traj.p_plus[0] == 1.0
        np.testing.assert_allclose(traj.p_plus[1], 0.9643162170024157, rtol=1e-13)

    def test_two_spin_against_independent_formula(self):
        p = SystemParams(N=2, A=0.13, omega0=0.9, initial_p_plus=1.0)
        t = np.linspace(0.0, 30.0, 301)
        traj = exact_population_plus(p, t)
        np.testing.assert_allclose(
            traj.p_plus, two_spin_survival(0.13, 0.9, t), rtol=0, atol=1e-14
        )

    def test_initial_value_is_exact(self):
        for p0 in (0.0, 0.3, 1.0):
            p = SystemParams(N=7, A=0.21, omega0=1.3, initial_p_plus=p0)
            traj = exact_population_plus(p, np.array([0.0, 0.7]))
            assert traj.p_plus[0] == p0  # identity by algebraic form, not rounding

    def test_decoupled_limit_is_constant(self):
        p = SystemParams(N=9, A=0.0, omega0=1.0, initial_p_plus=0.42)
        traj = exact_population_plus(p, np.linspace(0.0, 50.0, 101))
        np.testing.assert_array_equal(traj.p_plus, 0.42)

    def test_population_bounds(self):
        p = SystemParams(N=11, A=0.4, omega0=0.7, initial_p_plus=0.8)
        traj = exact_population_plus(p, np.linspace(0.0, 40.0, 801))
        assert np.all(traj.p_plus >= -1e-12) and np.all(traj.p_plus <= 1.0 + 1e-12)
        np.testing.assert_allclose(traj.p_plus + traj.p_minus, 1.0, atol=1e-15)

    def test_general_p0_by_linearity(self):
        t = np.linspace(0.0, 20.0, 101)
        kw = dict(N=6, A=0.17, omega0=1.1)
        up = exact_population_plus(SystemParams(initial_p_plus=1.0, **kw), t)
        dn = exact_population_plus(SystemParams(initial_p_plus=0.0, **kw), t)
        mix = exact_population_plus(SystemParams(initial_p_plus=0.3, **kw), t)
        np.testing.assert_allclose(
            mix.p_plus, 0.3 * up.p_plus + 0.7 * dn.p_plus, rtol=0, atol=1e-15
        )


class TestCoherence:
    def test_initial_value_is_exact(self):
        c0 = 0.2 - 0.35j
        p = SystemParams(N=5, A=0.19, omega0=1.0, initial_p_plus=0.5, initial_coh=c0)
        traj = exact_coherence(p, np.array([0.0, 2.0]))
        assert traj.coh[0] == c0

    def test_decoupled_limit_is_constant_in_rotating_frame(self):
        c0 = 0.1 + 0.4j
        p = SystemParams(N=4, A=0.0, omega0=2.0, initial_p_plus=0.5, initial_coh=c0)
        traj = exact_coherence(p, np.linspace(0.0, 30.0, 61))
        np.testing.assert_allclose(traj.coh, c0, rtol=0, atol=1e-14)

    def test_zero_initial_coherence_stays_zero(self):
        p = SystemParams(N=6, A=0.2, omega0=1.0, initial_p_plus=1.0)
        traj = exact_coherence(p, np.linspace(0.0, 10.0, 21))
        np.testing.assert_array_equal(traj.coh, 0.0)

    def test_magnitude_never_exceeds_initial(self):
        # each sector factor has modulus <= 1 and the weights sum to 1
        c0 = 0.5
        p = SystemParams(N=9, A=0.35, omega0=0.8, initial_p_plus=0.5, initial_coh=c0)
        traj = exact_coherence(p, np.linspace(0.0, 60.0, 1201))
        assert np.max(np.abs(traj.coh)) <= abs(c0) + 1e-12

    def test_proportional_to_initial_coherence(self):
        t = np.linspace(0.0, 15.0, 151)
        kw = dict(N=5, A=0.22, omega0=1.2, initial_p_plus=0.5)
        a = exact_coherence(SystemParams(initial_coh=0.5, **kw), t)
        b = exact_coherence(SystemParams(initial_coh=0.1 - 0.2j, **kw), t)
        np.testing.assert_allclose(
            b.coh, (0.1 - 0.2j) / 0.5 * a.coh, rtol=0, atol=1e-15
        )


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "N, A, omega0, geometric",
        [
            pytest.param(1, 0.13, 0.9, False, id="1"),
            pytest.param(2, 0.13, 0.9, False, id="2"),
            pytest.param(4, 0.13, 0.9, False, id="4"),
            pytest.param(6, 0.13, 0.9, False, id="6"),
            # Omega_+ = 0 exactly, and mu = 0 at (j, m) = (1/2, 1/2)
            pytest.param(3, -0.25, 1.0, False, id="3-resonant"),
            pytest.param(1, 0.13, 0.9, True, id="1-geometric"),
        ],
    )
    def test_full_trajectory(self, N, A, omega0, geometric):
        p = SystemParams(
            N=N, A=A, omega0=omega0, initial_p_plus=0.35, initial_coh=0.2 - 0.3j
        )
        if geometric:
            t = np.concatenate([[0.0], np.geomspace(0.01, 40.0, 100)])
        else:
            t = np.linspace(0.0, 10.0, 101)
        got = exact_trajectory(p, t)
        ref = propagate(p, t)
        np.testing.assert_allclose(got.p_plus, ref.p_plus, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.coh, ref.coh, rtol=0, atol=1e-13)


def test_trajectory_builds_one_sector_table(monkeypatch):
    calls = []

    def counting(params, family):
        calls.append(family)
        return sector_family(params, family)

    p = SystemParams(N=6, A=0.13, omega0=0.9, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.linspace(0.0, 10.0, 101)
    monkeypatch.setattr(exact, "sector_family", counting)
    traj = exact_trajectory(p, t)
    assert calls == ["jm"]
    np.testing.assert_array_equal(traj.p_plus, exact_population_plus(p, t).p_plus)
    np.testing.assert_array_equal(traj.coh, exact_coherence(p, t).coh)


def test_time_chunks_do_not_change_the_result(monkeypatch, on_the_tiles):
    p = SystemParams(N=7, A=0.21, omega0=1.3, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.linspace(0.0, 20.0, 60)
    whole = exact_trajectory(p, t)
    on_the_tiles.clear()
    # blocks of one chain each, the longest (j = 7/2) 8 sectors at 40 bytes per sector-time
    # point: 7 times per chunk
    rows = 8
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 40 * rows * 7)
    monkeypatch.setattr(trajectory, "_workers", lambda: 1)  # the chunks counted below run
    assert len(list(trajectory._time_chunks(t.size, 40 * rows))) == 9
    chunked = exact_trajectory(p, t)
    assert on_the_tiles == [(True, True)]
    np.testing.assert_allclose(chunked.p_plus, whole.p_plus, rtol=0, atol=1e-15)
    np.testing.assert_allclose(chunked.coh, whole.coh, rtol=0, atol=1e-15)


def _two_branch_exact(p, t):
    """(P_+, coh) with both Rabi branches of every jm sector evaluated on their own.

    The reference for the pair rows of exact._sector_pass: the |-> branch of
    each sector takes Omega_-(m) and b(j, -m) of that sector and has its own
    survival sum.
    """
    fam = sector_family(p, "jm")
    surv, br = [], []
    for om, b4, combine in ((fam.om_p, fam.b_p, np.subtract), (fam.om_m, fam.b_m, np.add)):
        mu = np.sqrt(0.25 * om * om + b4)
        small = mu < 1e-300
        x = np.multiply.outer(mu, t)
        s = np.sin(x) / np.where(small, 1.0, mu)[:, None]
        s[small, :] = t
        surv.append(1.0 - np.add.reduce((fam.w * b4)[:, None] * s * s, axis=0))
        br.append(combine(np.cos(x), 0.5j * om[:, None] * s))
    f = np.exp(1j * p.omega0 * t)[None, :] * br[0] * br[1]
    coh = complex(p.initial_coh) * (1.0 + np.add.reduce(fam.w[:, None] * (f - 1.0), axis=0))
    p0 = p.initial_p_plus
    return p0 * surv[0] + (1.0 - p0) * (1.0 - surv[1]), coh, fam


@pytest.mark.parametrize("resonant", [False, True], ids=["generic", "resonant"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_pair_rows_equal_both_branches(n, resonant):
    # resonant: Omega_+(m) = 0 bit for bit at two_m = N (N = 2: two_m = 0)
    a, two_m = -0.13, (0 if n == 2 else n)
    omega0 = -(2.0 * a * (two_m + 1.0)) if resonant else 0.9
    p = SystemParams(N=n, A=a, omega0=omega0, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 90)])
    p_plus, coh, fam = _two_branch_exact(p, t)
    assert np.any(fam.om_p == 0.0) == resonant
    traj = exact_trajectory(p, t)
    np.testing.assert_array_equal(traj.p_plus, p_plus)
    np.testing.assert_array_equal(traj.coh, coh)


def _fresh_temporaries_exact(p, t):
    """(P_+, coh) of the pair-row sums over the whole table, each temporary allocated afresh.

    The reference for the tiled sweep of exact._sector_pass, which fills one
    set of buffers per (sector block, time chunk) tile.
    """
    fam = sector_family(p, "jm")
    size, bottom = fam.w.size, np.flatnonzero(fam.lower < 0)
    om = np.concatenate([fam.om_p, -fam.om_m[bottom]])
    mu = np.sqrt(0.25 * om * om + np.concatenate([fam.b_p, fam.b_m[bottom]]))
    minus = np.where(fam.lower >= 0, fam.lower, size + np.cumsum(fam.lower < 0) - 1)
    small = mu < 1e-300
    x = np.multiply.outer(mu, t)
    s = np.sin(x) / np.where(small, 1.0, mu)[:, None]
    s[small, :] = t
    surv = 1.0 - np.add.reduce((fam.w * fam.b_p)[:, None] * s[:size] * s[:size], axis=0)
    br = np.cos(x) - 0.5j * om[:, None] * s
    f = np.exp(1j * p.omega0 * t)[None, :] * br[:size] * br[minus]
    coh = complex(p.initial_coh) * (1.0 + np.add.reduce(fam.w[:, None] * (f - 1.0), axis=0))
    p0 = p.initial_p_plus
    return p0 * surv + (1.0 - p0) * (1.0 - surv), coh


@pytest.mark.parametrize("budget", ["default", "one-chain-blocks"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_buffers_equal_fresh_temporaries(monkeypatch, n, budget):
    # one set of buffers per tile, and sector sums carried from block to block,
    # change no bit; "one-chain-blocks" makes every chain a block of its own
    # and every time chunk at most 8 wide
    p = SystemParams(N=n, A=-0.13, omega0=0.9, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 90)])
    p_plus, coh = _fresh_temporaries_exact(p, t)
    if budget != "default":
        longest = n + 2  # pair rows of the top chain, j = N/2
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 16 * longest * 8)
        assert len(trajectory._sector_blocks(sector_family(p, "jm").lower, t.size, 16)) == \
            n // 2 + 1
    traj = exact_trajectory(p, t)
    np.testing.assert_array_equal(traj.p_plus, p_plus)
    np.testing.assert_array_equal(traj.coh, coh)


def _resonant_omega0(n, a):
    """omega0 that puts Omega_+(m) = 0 bit for bit at the top sector two_m = N (N = 2: 0)."""
    return -(2.0 * a * ((0 if n == 2 else n) + 1.0))


ROUTE_CASES = {
    "1": (1, -0.13, 0.9),
    "2": (2, -0.13, 0.9),
    "5": (5, -0.13, 0.9),
    "101": (101, 0.1 / 202, 1.0),
    "101-strong": (101, -0.5 / 202, 0.7),
    "1-resonant": (1, -0.13, _resonant_omega0(1, -0.13)),
    "2-resonant": (2, -0.13, _resonant_omega0(2, -0.13)),
    "5-resonant": (5, -0.13, _resonant_omega0(5, -0.13)),
    # mu = 0 at (j, m) = (1/2, 1/2)
    "3-zero-mu": (3, -0.25, 1.0),
    "9-decoupled": (9, 0.0, 1.0),
}


@pytest.mark.parametrize("n, a, omega0", ROUTE_CASES.values(), ids=ROUTE_CASES.keys())
def test_uniform_route_agrees_with_the_sector_pass(monkeypatch, n, a, omega0):
    # both parts by _exp_sum on a uniform grid, against the tiles, the route of every
    # other grid, on the same grid
    p = SystemParams(N=n, A=a, omega0=omega0, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = 0.1 * np.arange(1001)
    assert trajectory._uniform_step(t) is not None
    fam = sector_family(p, "jm")
    om, mu, _ = exact._pair_rows(fam)
    if omega0 == _resonant_omega0(n, a):
        assert np.any(om == 0.0)
    if (n, a) == (3, -0.25):
        assert np.any(mu == 0.0)
    traj = exact_trajectory(p, t)
    with monkeypatch.context() as patch:
        patch.setattr(trajectory, "_uniform_step", lambda t: None)
        tiles = exact_trajectory(p, t)
    np.testing.assert_allclose(traj.p_plus, tiles.p_plus, rtol=0, atol=1e-13)
    np.testing.assert_allclose(traj.coh, tiles.coh, rtol=0, atol=1e-13)
    assert traj.p_plus[0] == 0.35 and traj.coh[0] == 0.2 - 0.3j
    if a == 0.0:
        np.testing.assert_array_equal(traj.p_plus, 0.35)


def test_uniform_route_bits_do_not_depend_on_the_budget_or_the_term_slices(monkeypatch):
    # 1892 kept jm sectors of N = 101: 8 slices of 256 sectors against one
    # slice, and tables built one K block at a time against 11 at a time.  The
    # TCL2 series take their slices from the same trajectory._TERM_SLICE, of whole
    # sectors, so there the slices move the K blocks and the bits, but the budget does not
    p = SystemParams(N=101, A=0.05 / 101, omega0=1.0, initial_p_plus=0.7, initial_coh=0.3 + 0.1j)
    t = 0.5 * np.arange(2001)
    whole, whole_tcl2 = exact_trajectory(p, t), tcl2_jm(p, t)
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 1)
    budget_tcl2 = tcl2_jm(p, t)
    monkeypatch.setattr(trajectory, "_TERM_SLICE", trajectory._EXP_SUM_BLOCK)
    sizes, exp_sum = [], trajectory._exp_sum

    def spy(terms, *grid):
        terms = list(terms)
        sizes[-1].extend(nu.size for _, nu in terms)
        return exp_sum(terms, *grid)

    monkeypatch.setattr(trajectory, "_exp_sum", spy)
    sizes.append([])
    sliced = exact_trajectory(p, t)
    sizes.append([])
    tcl2_jm(p, t)
    assert all(sizes)
    assert max(max(got) for got in sizes) <= trajectory._EXP_SUM_BLOCK
    np.testing.assert_array_equal(sliced.p_plus, whole.p_plus)
    np.testing.assert_array_equal(sliced.coh, whole.coh)
    np.testing.assert_array_equal(budget_tcl2.p_plus, whole_tcl2.p_plus)
    np.testing.assert_array_equal(budget_tcl2.coh, whole_tcl2.coh)


_CAPPED_CHILD = textwrap.dedent(
    """
    import numpy as np
    from spinstar.exact import exact_trajectory
    from spinstar.sectors import SystemParams

    p = SystemParams(N=400, A=0.5 / 800, omega0=1.0, initial_p_plus=0.7, initial_coh=0.25 - 0.1j)
    traj = exact_trajectory(p, 0.5 * np.arange(512))
    assert traj.p_plus[0] == 0.7 and traj.coh[0] == 0.25 - 0.1j
    """
)


def test_large_bath_fits_a_memory_cap(run_capped):
    # N = 400 keeps 8464 of its 40401 (j, m) sectors: a (sectors, times)
    # complex array of the kept ones on 512 times is 69 MB, within the cap,
    # so this pins the cut's N = 400 path end to end; the memory bound itself
    # is pinned by tests/test_tail_cut.py::test_thousand_spins_on_16001_times_fit_a_memory_cap
    proc = run_capped(_CAPPED_CHILD, cap_mib=512)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_exact_vs_tcl2_demo_runs_and_meets_the_goldens(tmp_path):
    # a copy, because the demos write next to themselves; 12000 uniform times, so
    # every sum takes trajectory._exp_sum
    demo = Path(__file__).resolve().parents[1] / "demos" / "demo_exact_vs_tcl2.py"
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(exact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = (tmp_path / "demo_exact_vs_tcl2.csv").read_text().splitlines()
    assert lines[0] == "t,abs_coh_exact,abs_coh_tcl2_m,abs_coh_tcl2_jm"
    assert len(lines) == 1 + 12000
    sup_jm = float(re.search(r"sup \|tcl2\(jm\) - exact\| = (\S+)", proc.stdout)[1])
    assert sup_jm <= goldens.TCL2_JM_COH_SUP_ALPHA01, proc.stdout
    revival = float(re.search(r"first revival: t = (\S+)", proc.stdout)[1])
    expected = math.pi / (2.0 * coupling_from_alpha(101, 1.0, 0.1))
    assert abs(revival - expected) <= goldens.REVIVAL_TIME_ABS_TOL, proc.stdout


class TestValidation:
    def test_bad_grids(self):
        p = SystemParams(N=2, A=0.1, omega0=1.0)
        with pytest.raises(ValueError):
            exact_population_plus(p, np.array([]))
        with pytest.raises(ValueError):
            exact_population_plus(p, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            exact_coherence(p, np.array([0.0, np.inf]))

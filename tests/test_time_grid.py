"""Every public entry point that takes a time grid rejects a malformed one."""

import dataclasses

import numpy as np
import pytest

from spinstar.exact import exact_coherence, exact_population_plus, exact_trajectory
from spinstar.masters import (
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
from spinstar import trajectory
from spinstar.oracle import propagate
from spinstar.sectors import SystemParams, sector_family
from spinstar.trajectory import Trajectory
from spinstar.volterra import NumericsError, integrate_linear_ode, solve_volterra_batch

P = SystemParams(N=2, A=0.1, omega0=1.0, initial_coh=0.0)
ONE = np.ones(1)

ENTRY_POINTS = {
    "exact_population_plus": lambda t: exact_population_plus(P, t),
    "exact_coherence": lambda t: exact_coherence(P, t),
    "exact_trajectory": lambda t: exact_trajectory(P, t),
    # survival of |+>: P_+ of the exact route started in |+>
    "population_survival": lambda t: exact_population_plus(
        dataclasses.replace(P, initial_p_plus=1.0), t
    ),
    "tcl2_coherence_m": lambda t: tcl2_coherence_m(P, t),
    "tcl2_population_m": lambda t: tcl2_population_m(P, t),
    "nz2_coherence_m": lambda t: nz2_coherence_m(P, t),
    "nz2_population_m": lambda t: nz2_population_m(P, t),
    "tcl2_jm": lambda t: tcl2_jm(P, t),
    "nz2_jm": lambda t: nz2_jm(P, t),
    "standard_projection_population": lambda t: standard_projection_population(P, t),
    "tcl2_coherence_via_ode": lambda t: tcl2_coherence_via_ode(P, t, "jm"),
    "tcl2_population_via_ode": lambda t: tcl2_population_via_ode(P, t, "jm"),
    "solve_volterra_batch": lambda t: solve_volterra_batch(ONE, [[1.0]], [[0.0]], t),
    "integrate_linear_ode": lambda t: integrate_linear_ode(ONE, lambda tt, y: -y, t),
    "propagate": lambda t: propagate(P, t),
    "propagate_ode": lambda t: propagate(P, t, method="ode"),
    "oracle_trajectory": lambda t: propagate(P, t).trajectory(),
    "Trajectory": lambda t: Trajectory(
        times=t, p_plus=None, p_minus=None, coh=None,
        method="exact", projection="none", params=P,
    ),
}

BAD_GRIDS = {
    "empty": [],
    "repeated": [0.0, 0.0],
    "decreasing": [0.0, 2.0, 1.0],
    "nan": [0.0, np.nan],
    "inf": [0.0, 1.0, np.inf],
    "2-D": [[0.0, 1.0], [2.0, 3.0]],
}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_malformed_grid_is_rejected(entry, grid):
    with pytest.raises(ValueError):
        entry(np.array(grid, dtype=float))


def test_trajectory_checks_each_array_as_it_is():
    # a strided complex view and an integer array are checked by value: no view of
    # their bytes as floats (which needs a contiguous last axis, and which would read
    # the integer 0x7ff0000000000000 as inf)
    p = dataclasses.replace(P, initial_coh=0.3 - 0.1j)
    whole = exact_trajectory(p, np.linspace(0.0, 4.0, 9))
    half = Trajectory(times=whole.times[::2], p_plus=whole.p_plus[::2],
                      p_minus=whole.p_minus[::2], coh=whole.coh[::2], method="exact",
                      projection="none", params=p)
    np.testing.assert_array_equal(half.coh, whole.coh[::2])
    ints = np.array([0x7FF0000000000000, 1])
    traj = Trajectory(times=np.arange(2.0), p_plus=ints, p_minus=1 - ints, coh=None,
                      method="exact", projection="none", params=p)
    np.testing.assert_array_equal(traj.p_plus, ints)
    with pytest.raises(NumericsError, match="coh contains non-finite"):
        Trajectory(times=whole.times[::2], p_plus=None, p_minus=None,
                   coh=np.where(np.arange(9) == 4, np.inf, whole.coh)[::2], method="exact",
                   projection="none", params=p)


def test_one_wide_tail_joins_the_last_chunk(monkeypatch):
    # 36 jm sectors, 3 times per chunk: 10 times would leave a 1-wide tail,
    # which numpy sums over sectors pairwise instead of row by row
    p = SystemParams(N=10, A=0.07, omega0=1.2, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.linspace(0.0, 9.0, 10)
    runs = {
        "exact_trajectory": lambda: exact_trajectory(p, t),
        "tcl2_jm": lambda: tcl2_jm(p, t),
        "tcl2_coherence_m": lambda: tcl2_coherence_m(p, t),
        "tcl2_population_m": lambda: tcl2_population_m(p, t),
    }
    whole = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 16 * 36 * 3)
    widths = [s.stop - s.start for s in trajectory._time_chunks(t.size, 16 * 36)]
    assert widths == [3, 3, 4]
    assert [s.stop - s.start for s in trajectory._time_chunks(3, 2**30)] == [3]
    assert [s.stop - s.start for s in trajectory._time_chunks(5, 2**30)] == [2, 3]
    for name, run in runs.items():
        chunked = run()
        for part in ("p_plus", "coh"):
            if getattr(chunked, part) is not None:
                np.testing.assert_array_equal(getattr(chunked, part), getattr(whole[name], part))


def test_sector_blocks_are_runs_of_whole_chains(monkeypatch):
    # jm chains of N = 10 hold 1, 3, 5, 7, 9 and 11 sectors; at 8 sectors per
    # block a chain that would overflow starts the next block, and a chain
    # longer than 8 is a block of its own
    p = SystemParams(N=10, A=0.07, omega0=1.2)
    jm, m = sector_family(p, "jm").lower, sector_family(p, "m").lower
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 16 * trajectory._CHUNK_WIDTH * 8)
    monkeypatch.setattr(trajectory, "_workers", lambda: 1)  # the whole budget for one worker
    spans = [(b.start, b.stop) for b in trajectory._sector_blocks(jm, 300, 16)]
    assert spans == [(0, 4), (4, 9), (9, 16), (16, 25), (25, 36)]
    # the cap scales with the grid below _CHUNK_WIDTH times: 64 times allow 32 sectors
    assert [(b.start, b.stop) for b in trajectory._sector_blocks(jm, 64, 16)] == [(0, 25),
                                                                                  (25, 36)]
    assert trajectory._sector_blocks(jm, 1, 16) == [slice(0, 36)]
    assert trajectory._sector_blocks(m, 300, 16) == [slice(0, 11)]  # one chain


UNIFORM_GRIDS = {
    "cli": (0.5 * np.arange(2001), 0.5),  # dt * arange, as the CLI builds it
    "linspace": (np.linspace(0.0, 10.0, 101), 0.1),
    "shifted": (3.7 + 0.1 * np.arange(60), 0.1),
    "negative-start": (np.linspace(-2.0, 5.0, 71), 0.1),
    "one-point": (np.array([4.2]), 0.0),
    "two-points": (np.array([1.0, 2.5]), 1.5),
}


@pytest.mark.parametrize("t, dt", UNIFORM_GRIDS.values(), ids=UNIFORM_GRIDS.keys())
def test_uniform_step_of_a_uniform_grid(t, dt):
    assert trajectory._uniform_step(t) == pytest.approx(dt, rel=1e-14, abs=0.0)


def test_uniform_step_of_a_non_uniform_grid_is_none():
    geometric = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 90)])
    assert trajectory._uniform_step(geometric) is None
    moved = np.linspace(0.0, 10.0, 101)
    moved[37] += 1e-12
    assert trajectory._uniform_step(moved) is None


def _direct_exp_sum(amp, nu, t):
    """sum_k amp_k (exp(i nu_k t) - 1), one time at a time."""
    return np.array([np.sum(amp * (np.exp(1j * nu * tn) - 1.0)) for tn in t])


@pytest.mark.parametrize("t0", [0.0, 3.7])
@pytest.mark.parametrize("n", [1, 2, 3, 97, 100, 2001])
def test_exp_sum_equals_the_direct_sum(monkeypatch, n, t0):
    rng = np.random.default_rng(n)
    amp = rng.uniform(-1.0, 1.0, 700) / 700
    nu = rng.uniform(-2.0, 2.0, 700)
    dt = 0.05
    direct = _direct_exp_sum(amp, nu, t0 + dt * np.arange(n))
    whole = trajectory._exp_sum([(amp, nu)], t0, dt, n)
    # giant-step rows in chunks of 2, the least height, over two pairs of 300 and 400 terms
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 1)
    blocked = trajectory._exp_sum([(amp[:300], nu[:300]), (amp[300:], nu[300:])], t0, dt, n)
    for got in (whole, blocked):
        assert got.shape == (n,)
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-14)
        if t0 == 0.0:
            assert got[0] == 0.0  # E(0) - E(0) from the same GEMM element


@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_exp_sum_on_a_long_grid_equals_the_direct_sum(monkeypatch, t0):
    # t up to 8000: the phases of both sides round their arguments.  The direct sum
    # rounds nu t once, to eps/2 of |nu t|; the kernel rounds the four parts whose
    # sum is nu t (nu (t0 + u r2 C dt), nu v C dt, nu a c2 dt and nu c dt), each
    # to eps/2 of a size at most |nu t|.  So a term's phase differs by at most
    # 2.5 eps |nu t|, and E(t) by at most 2.5 eps |t| sum |amp nu|, plus the
    # 1e-14 of the short grids for the rounding of the products and the sums.
    n, dt = 16001, 0.5
    rng = np.random.default_rng(n)
    amp = rng.uniform(-1.0, 1.0, 700) / 700
    nu = rng.uniform(-2.0, 2.0, 700)
    t = t0 + dt * np.arange(n)
    direct = _direct_exp_sum(amp, nu, t)
    tol = 1e-14 + 2.5 * np.finfo(float).eps * np.abs(t) * np.sum(np.abs(amp * nu))
    whole = trajectory._exp_sum([(amp, nu)], t0, dt, n)
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 1)
    blocked = trajectory._exp_sum([(amp[:300], nu[:300]), (amp[300:], nu[300:])], t0, dt, n)
    for got in (whole, blocked):
        assert np.all(np.abs(got - direct) <= tol)
        if t0 == 0.0:
            assert got[0] == 0.0


def test_exp_sum_bits_do_not_depend_on_the_budget(monkeypatch):
    # K blocks of a fixed _EXP_SUM_BLOCK terms; only the 42 giant-step rows (41 rows
    # C = 49 steps apart, then t = 0) are chunked under the budget: 2 rows at 1 B,
    # 4 at 16 KiB, all of them by default
    rng = np.random.default_rng(7)
    amp, nu = rng.uniform(-1.0, 1.0, 700) / 700, rng.uniform(-2.0, 2.0, 700)
    terms = [(amp[:300], nu[:300]), (amp[300:], nu[300:])]
    runs = []
    for budget in (trajectory._CHUNK_BYTES, 2**14, 1):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", budget)
        runs.append(trajectory._exp_sum(iter(terms), 0.0, 0.05, 2001))
    assert len(list(trajectory._time_chunks(42, 16 * trajectory._EXP_SUM_BLOCK))) == 21
    for got in runs[1:]:
        np.testing.assert_array_equal(got, runs[0])

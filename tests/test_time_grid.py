"""Every public entry point that takes a time grid rejects a malformed one."""

import dataclasses
import math

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


@pytest.mark.parametrize("t0", [0.0, 3.7, -3.7])
@pytest.mark.parametrize("n", [4, 5, 16, 17, 81, 82, 256, 257])
def test_exp_sum_equals_the_direct_sum_where_the_tables_change_shape(monkeypatch, n, t0):
    # C = c1 c2 grows at n = 5, and c2 at 17, 82 and 257; frequencies from 1e-9 to 50
    # and amplitudes from 1e-6 to 1, of either sign, summing to 1 in magnitude
    rng = np.random.default_rng(n)
    amp = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-6.0, 0.0, 300)
    amp /= np.sum(np.abs(amp))
    nu = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-9.0, math.log10(50.0), 300)
    dt = 0.3
    t = t0 + dt * np.arange(n)
    direct = _direct_exp_sum(amp, nu, t)
    tol = 1e-14 + 2.5 * np.finfo(float).eps * np.abs(t) * np.sum(np.abs(amp * nu))
    whole = trajectory._exp_sum([(amp, nu)], t0, dt, n)
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 1)
    blocked = trajectory._exp_sum([(amp[:100], nu[:100]), (amp[100:], nu[100:])], t0, dt, n)
    for got in (whole, blocked):
        assert got.shape == (n,)
        assert np.all(np.abs(got - direct) <= tol)
        if t0 == 0.0:
            assert got[0] == 0.0


@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_exp_sum_takes_a_fixed_count_of_sines_and_cosines_per_term(monkeypatch, t0):
    # only the bases of the power tables take sines and cosines: four per term, and
    # one more for exp(i nu t0) where t0 != 0, however long the grid
    filled, phases = [], trajectory._phases

    def spy(table, a, b):
        filled.append(table.size)
        return phases(table, a, b)

    monkeypatch.setattr(trajectory, "_phases", spy)
    rng = np.random.default_rng(3)
    amp, nu = rng.uniform(-1.0, 1.0, 700) / 700, rng.uniform(-2.0, 2.0, 700)
    padded = 304 + 400  # each pair padded to a multiple of 8 terms
    counts = []
    for n in (601, 16001):
        filled.clear()
        trajectory._exp_sum([(amp[:300], nu[:300]), (amp[300:], nu[300:])], t0, 0.05, n)
        counts.append(sum(filled))
    assert counts[0] == counts[1] <= 5 * padded


def test_exp_sum_tables_fit_the_budget(monkeypatch):
    # 4096 terms on 16001 times: four tables of 12 rows, 3 MiB, built at once under
    # the default 4 MiB budget, and 1280 terms at a time under 1 MiB, bit for bit
    sizes, power_tables = [], trajectory._power_tables

    def spy(tables, *args):
        sizes.append(tables.nbytes)
        return power_tables(tables, *args)

    monkeypatch.setattr(trajectory, "_power_tables", spy)
    rng = np.random.default_rng(5)
    terms = [(rng.uniform(-1.0, 1.0, 4096) / 4096, rng.uniform(-2.0, 2.0, 4096))]
    whole = trajectory._exp_sum(terms, 0.0, 0.05, 16001)
    assert sizes == [4 * 12 * 4096 * 16] and sizes[0] <= trajectory._CHUNK_BYTES
    sizes.clear()
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 2**20)
    small = trajectory._exp_sum(terms, 0.0, 0.05, 16001)
    assert len(sizes) == 4 and max(sizes) <= 2**20 and sum(sizes) == 4 * 12 * 4096 * 16
    np.testing.assert_array_equal(small, whole)


@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_exp_sum_on_a_long_grid_equals_the_direct_sum(monkeypatch, t0):
    # t up to 8000: the phases of both sides round their arguments.  The direct sum
    # rounds nu t once, to eps/2 of |nu t|.  The kernel rounds nu t0 to eps/2 of
    # |nu t0|, and the base of each power table, nu times its step (r2 C dt, C dt,
    # c2 dt or dt), to eps of its size; the powers u, v, a and c multiply those
    # errors by themselves, and the four parts u r2 C + v C + a c2 + c add up to
    # (t - t0)/dt, so the kernel's phase is off by at most eps |nu| (|t0|/2 + t - t0).
    # With 0 <= t0 <= t a term's phase differs by at most 1.5 eps |nu t| <= 2.5 eps
    # |nu t|, and E(t) by at most 2.5 eps |t| sum |amp nu|, plus the 1e-14 of the
    # short grids for the rounding of the sums, the products and the magnitudes of
    # the bases.  Those do not grow with t: a term is a product of at most 42 factors
    # of the four bases here (a < 11, c < 12, u < 11, v < 12), so it is off by at most about
    # 100 eps |amp_k|, with a sign that varies from term to term (measured: 2e-16 on
    # the first 100 times, and at most 2.5% of the tolerance on the whole grid).
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

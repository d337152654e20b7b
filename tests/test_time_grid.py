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
from spinstar.sectors import SystemParams
from spinstar.trajectory import Trajectory
from spinstar.volterra import (
    KernelSpec,
    integrate_linear_ode,
    solve_volterra,
    solve_volterra_batch,
)

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
    "solve_volterra": lambda t: solve_volterra(1.0, KernelSpec(terms=((1.0, 0.0),)), t),
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

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

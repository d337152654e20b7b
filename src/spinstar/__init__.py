"""Non-Markovian dynamics of a central spin coupled uniformly to a spin bath.

Exact closed-form dynamics, second-order TCL/NZ master equations under
correlated (sector) projections, a dense exact-diagonalization reference, and
a Volterra integrodifferential engine, plus a CSV-emitting CLI.
"""

from .exact import exact_coherence, exact_population_plus, exact_trajectory
from .masters import (
    SectorBundle,
    j3tot_expectation,
    nz2_coherence_m,
    nz2_jm,
    nz2_population_m,
    standard_projection_population,
    tcl2_coherence_m,
    tcl2_jm,
    tcl2_population_m,
)
from .oracle import (
    CapacityError,
    OracleResult,
    build_hamiltonian,
    check_plp_zero,
    check_projection_conditions,
    propagate,
)
from .sectors import (
    SectorJM,
    SectorM,
    SystemParams,
    alpha,
    b_coeff,
    coupling_from_alpha,
    mu,
    prob_j,
    sector_frequencies,
    weight_m,
)
from .trajectory import ErrorReport, Trajectory, compare_trajectories
from .volterra import (
    KernelSpec,
    NumericsError,
    SolveOptions,
    integrate_linear_ode,
    solve_volterra,
    solve_volterra_batch,
)

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "SectorM", "SectorJM", "weight_m", "prob_j",
    "sector_frequencies", "mu", "alpha", "coupling_from_alpha", "b_coeff",
    "Trajectory", "ErrorReport", "compare_trajectories",
    "exact_population_plus", "exact_coherence", "exact_trajectory",
    "tcl2_coherence_m", "tcl2_population_m", "nz2_coherence_m",
    "nz2_population_m", "tcl2_jm", "nz2_jm",
    "standard_projection_population",
    "SectorBundle", "j3tot_expectation",
    "KernelSpec", "SolveOptions", "NumericsError",
    "solve_volterra", "solve_volterra_batch", "integrate_linear_ode",
    "CapacityError", "OracleResult", "propagate",
    "build_hamiltonian", "check_projection_conditions", "check_plp_zero",
    "__version__",
]

"""Time-series containers and trajectory comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sectors import SystemParams

__all__ = ["Trajectory", "ErrorReport", "compare_trajectories"]

#: bytes allowed for one complex (rows, chunk) temporary of a chunked sum over times.
#: Kept below 8 MiB: freeing a larger block raises glibc's dynamic mmap threshold
#: above the 8 MB temporaries of bench/child.py's host calibration, which then
#: come from the heap, run faster and skew every calibrated timing.
_CHUNK_BYTES = 4 * 2**20


class NumericsError(RuntimeError):
    """Raised on non-finite solver inputs or results, or when a solver fails to converge.

    ``route`` names the integrator that failed (``"rk4"``, ``"quadrature"``
    or ``"spectral"``), ``step`` the last step it used, ``halvings`` the
    step halvings it had done and ``error`` the last error it measured (the
    gap between two refinements, or the spectral weight-sum defect).  Each
    is None where it does not apply.
    """

    def __init__(self, message, *, route=None, step=None, halvings=None, error=None):
        super().__init__(message)
        self.route, self.step, self.halvings, self.error = route, step, halvings, error


def _validate_times(times) -> np.ndarray:
    """``times`` as floats; ValueError unless non-empty, 1-D, finite and strictly increasing."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("times must be strictly increasing")
    return t


def _time_chunks(n_times: int, bytes_per_time: int):
    """Slices covering range(n_times) whose length times ``bytes_per_time`` fits _CHUNK_BYTES.

    No slice is 1 wide unless n_times is 1: the last slice takes in a 1-wide
    tail (one time over the budget), and every slice is at least 2 wide.
    numpy sums an (S, 1) block over S pairwise but a wider block row by row,
    so a 1-wide slice would round differently from a whole-array sum.
    """
    step, lo = max(2, _CHUNK_BYTES // bytes_per_time), 0
    while lo < n_times:
        hi = lo + step if lo + step + 1 < n_times else n_times
        yield slice(lo, hi)
        lo = hi


@dataclass
class Trajectory:
    """Reduced central-spin dynamics on a time grid.

    ``p_plus``/``p_minus``/``coh`` may be None when a method fills only part
    of the state (e.g. a coherence-only solver).  All trajectories live in
    the rotating frame of the central spin.  Non-finite data raise
    NumericsError: a finite input whose result overflows is a numeric failure.
    """

    times: np.ndarray
    p_plus: np.ndarray | None
    p_minus: np.ndarray | None
    coh: np.ndarray | None
    method: str
    projection: str
    params: SystemParams

    def __post_init__(self):
        self.times = _validate_times(self.times)
        for name in ("p_plus", "p_minus", "coh"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            if arr.shape != self.times.shape:
                raise ValueError(f"{name} must match the time grid shape")
            if not np.all(np.isfinite(arr.view(float))):
                raise NumericsError(f"{name} contains non-finite values")
            setattr(self, name, arr)

    def trace_drift(self) -> float:
        """Max deviation of p_plus + p_minus from 1 over the grid (0 if populations absent)."""
        if self.p_plus is None or self.p_minus is None:
            return 0.0
        return float(np.max(np.abs(self.p_plus + self.p_minus - 1.0)))


@dataclass
class ErrorReport:
    """Sup/L2 deviations between two trajectories plus conservation diagnostics.

    The L2 norm is sqrt of the trapezoidal integral of |delta|^2 over the
    common time grid.  ``j3tot_drift`` is filled by callers that have
    sector-resolved data; it defaults to 0 for methods without it.
    """

    method_ref: str
    method_other: str
    sup_err_pop: float
    l2_err_pop: float
    sup_err_coh: float
    l2_err_coh: float
    trace_drift: float
    j3tot_drift: float = 0.0

    FIELDS = (
        "method_ref",
        "method_other",
        "sup_err_pop",
        "l2_err_pop",
        "sup_err_coh",
        "l2_err_coh",
        "trace_drift",
        "j3tot_drift",
    )


def _sup_l2(delta: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    mag = np.abs(delta)
    return float(np.max(mag)), float(np.sqrt(np.trapezoid(mag**2, times)))


def compare_trajectories(
    ref: Trajectory, other: Trajectory, j3tot_drift: float = 0.0
) -> ErrorReport:
    """Error metrics of ``other`` against ``ref`` on their (shared) time grid."""
    if ref.times.shape != other.times.shape or not np.allclose(
        ref.times, other.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectories must share a common time grid")
    sup_p = l2_p = 0.0
    if ref.p_plus is not None and other.p_plus is not None:
        sup_p, l2_p = _sup_l2(other.p_plus - ref.p_plus, ref.times)
    sup_c = l2_c = 0.0
    if ref.coh is not None and other.coh is not None:
        sup_c, l2_c = _sup_l2(other.coh - ref.coh, ref.times)
    return ErrorReport(
        method_ref=f"{ref.method}_{ref.projection}",
        method_other=f"{other.method}_{other.projection}",
        sup_err_pop=sup_p,
        l2_err_pop=l2_p,
        sup_err_coh=sup_c,
        l2_err_coh=l2_c,
        trace_drift=other.trace_drift(),
        j3tot_drift=j3tot_drift,
    )

"""Time-series containers, trajectory comparison metrics and the time-grid kernels.

Every public solver checks its grid with ``_validate_times``.  The sector
sums then run per (sector block, time chunk) tile of ``_sector_blocks`` and
``_time_chunks`` on any grid, and ``_sweep`` spreads the time chunks over
one thread per allowed CPU, up to _MAX_WORKERS.  Where ``_uniform_step``
finds a uniform grid, a sum of exponentials in time can instead take
``_exp_sum``, one blocked complex GEMM on the whole grid, its terms cut into
the slices of ``_sector_slices``.  One rule, ``_kernel_pays``, picks the route
of every part (the exact sums, the TCL2 coherence and populations, the NZ2
totals) from its term count and its tile cost.  At N = 101 and alpha = 0.1
the kernel takes the exact sums from 27 times on, the TCL2 coherence from
42 (m) and 93 (jm), the TCL2 populations from 28 and 183, and the NZ2
coherence and populations from 11 and 24 (m) and 8 and 16 (jm).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .sectors import SystemParams

__all__ = ["Trajectory", "ErrorReport", "compare_trajectories"]

#: bytes allowed for one complex (rows, chunk) temporary of a chunked sum over times,
#: one budget shared by all the workers of a ``_sweep``: with c workers the sector
#: blocks and the time chunks are sized from a 1/c share of it.
#: Kept below 8 MiB: freeing a larger block raises glibc's dynamic mmap threshold
#: above the 8 MB temporaries of bench/child.py's host calibration, which then
#: come from the heap, run faster and skew every calibrated timing.
_CHUNK_BYTES = 4 * 2**20

#: time-chunk width that ``_sector_blocks`` sizes its sector blocks for: numpy's
#: inner loops run along the times, and a 2-wide chunk would make them 2 long
_CHUNK_WIDTH = 256

#: most threads a ``_sweep`` runs on: the largest count whose gain has been measured
#: (2 CPUs, BENCH_19.json).  A CPU quota does not shrink the affinity set, so an
#: uncapped count could start one thread per core of a large host; raise this only
#: with a measurement on such a host.
_MAX_WORKERS = 2

#: terms per K block of ``_exp_sum``: fixed, so that no bit depends on the memory
#: budget, and a multiple of 8, so that none depends on the BLAS thread count
_EXP_SUM_BLOCK = 256

#: most terms per slice that ``_sector_slices`` gives ``_exp_sum``: a multiple of its
#: K block, so that the slices block K as one whole pair would, and fixed, so that no
#: bit depends on the memory budget
_TERM_SLICE = 16 * _EXP_SUM_BLOCK

#: (a, b, c) of what ``_exp_sum`` costs a term on n times, a + b sqrt(n) + c n ns: the
#: tables and the products grow like sqrt(n), the GEMM like n, and without c the fit is
#: 27% short at 16001 times.  Fitted on one BLAS thread of a 2-vCPU host over 4096 and
#: 32768 terms on 16 to 16001 times: 188-191 ns a term at 16 times, 388-396 at 256,
#: 828-871 at 2048, 1945-1999 at 8192, 3264-3305 at 16001 (min of 7-15), all within 12%
_TERM_NS = (150.0, 12.5, 0.085)

#: ns that one ``_exp_sum`` call costs beside its terms (its buffers, its chunk list and
#: its Python loops): 28-38 us with 8 terms on 16 to 256 times, as much as 100-200 terms
#: on short grids, where the tables of N = 5 hand it 68 (one BLAS thread, 2-vCPU host)
_CALL_NS = 30e3


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


def _sector_blocks(lower: np.ndarray, n_times: int, bytes_per_point: int) -> list[slice]:
    """Runs of whole chains covering the sector axis, sized so that time chunks stay wide.

    ``lower`` is a SectorFamily's: a chain starts where it is negative.  With
    c = ``_workers()`` and a width w = min(ceil(n_times / c), _CHUNK_WIDTH), a
    block holds at most _CHUNK_BYTES // c // (bytes_per_point * w) sectors, or
    one chain where a chain alone is longer, so a (block, chunk) tile in one
    worker's share of the budget is about _CHUNK_WIDTH times wide, or a 1/c
    part of the grid where that is shorter.  Kernels carry the sector sum from
    block to block through ``_add_rows``.
    """
    c = _workers()
    width = min(-(-n_times // c), _CHUNK_WIDTH)
    cap = max(1, _CHUNK_BYTES // c // (bytes_per_point * width))
    blocks, lo, hi = [], 0, 0
    for end in np.append(np.flatnonzero(lower < 0)[1:], lower.size):  # chain ends
        if end - lo > cap and hi > lo:
            blocks.append(slice(lo, hi))
            lo = hi
        hi = int(end)
    blocks.append(slice(lo, hi))
    return blocks


def _add_rows(block: np.ndarray, acc: np.ndarray | None) -> np.ndarray:
    """The running total ``acc`` (None before the first block) plus the rows of ``block``.

    ``acc`` goes into the first row, so a sum over consecutive blocks adds
    the rows in the order of one ``np.add.reduce`` over the whole table, bit
    for bit (numpy reduces a C-ordered (rows, chunk) block row by row once
    the chunk is at least 2 wide).  ``block`` is overwritten.
    """
    if acc is not None:
        block[0] += acc
    return np.add.reduce(block, axis=0)


def _uniform_step(t: np.ndarray) -> float | None:
    """The step dt of a grid t_n = t_0 + n dt, or None where ``t`` is not such a grid.

    Every point must lie within four ulps of max|t| of t_0 + n dt, which
    holds for ``dt * arange`` and ``linspace`` grids.  A one-point grid has
    step 0.0.
    """
    if t.size == 1:
        return 0.0
    dt = float(t[-1] - t[0]) / (t.size - 1)
    tol = 4.0 * np.spacing(max(abs(t[0]), abs(t[-1])))
    return dt if np.max(np.abs(t - (t[0] + dt * np.arange(t.size)))) <= tol else None


def _kernel_pays(n_times: int, tile_cost: float, n_terms: int) -> bool:
    """Whether ``_exp_sum`` of n_terms terms on n_times times costs less than tiles of
    ``tile_cost`` ns per time: the one route rule of every part.  It reads counts only,
    never the CPU or BLAS thread count, so a route depends on the family and the grid."""
    a, b, c = _TERM_NS
    kernel = _CALL_NS + n_terms * (a + b * math.sqrt(n_times) + c * n_times)
    return n_times * tile_cost >= kernel


def _sector_slices(counts, terms):
    """The ``terms(rows, k)`` of sector ``rows`` and its k-th term, k < counts[row], in
    slices of a fixed number of whole sectors, at most _TERM_SLICE terms each, so that
    no term array spans the table and no bit depends on the memory budget."""
    step = max(1, _TERM_SLICE // max(1, int(counts.max())))  # sectors per slice

    def part(lo):
        size = counts[lo:lo + step]
        rows = np.repeat(np.arange(lo, lo + size.size), size)
        return terms(rows, np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size))

    return (part(lo) for lo in range(0, counts.size, step))


def _exp_sum(terms, t0: float, dt: float, n: int) -> np.ndarray:
    """E(t0 + j dt) - E(0) for j < n, where E(t) = sum_k amp_k exp(i nu_k t).

    ``terms`` yields the (amp, nu) array pairs of the sum, added in order.
    Baby steps and giant steps (Paterson & Stockmeyer, SIAM J. Comput. 2,
    60, 1973): with j = q C + r, E is one complex GEMM (Q x K) @ (K x C) of
    the giant steps amp_k exp(i nu_k (t0 + q C dt)) and the baby steps
    exp(i nu_k r dt).  Each table is in turn the elementwise product of two
    small tables, one level deeper: r = a c2 + c splits the baby steps
    into exp(i nu_k a c2 dt) exp(i nu_k c dt), and q = u r2 + v the giant
    steps into amp_k exp(i nu_k t0) exp(i nu_k u r2 C dt) exp(i nu_k v C dt),
    with c2 ~ sqrt(C), C rounded up to c1 c2 ~ sqrt(n) and r2 ~ sqrt(Q).  The
    four small tables are powers of their steps' phases (``_power_tables``), so
    it takes 4 K sines and cosines, 5 K where t0 != 0, and K (Q + C) complex
    products, plus about 4 K n^(1/4) for the powers, instead of K n of each.
    A last giant row at t = 0, exactly amp_k, gives E(0) from the same GEMM;
    where t0 = 0 the first row does, so the result is exactly 0 there.

    The tables of each (amp, nu) pair are built once, for as many terms as fit
    _CHUNK_BYTES at a time, and the pair, padded with zero terms to a multiple
    of 8, runs through the GEMM in K blocks of _EXP_SUM_BLOCK terms, the
    giant-step rows of each block in chunks whose table fits _CHUNK_BYTES.
    Every table entry is a product of one term's phases alone, in a fixed order,
    and every element adds the same block products in the same order, whatever
    the budget, so the bits do not depend on it: splitting a GEMM by rows
    moves no bit, splitting K would.  Nor do they depend on the BLAS thread
    count, as long as every GEMM is complex, at least 2 rows tall
    (``_time_chunks`` and the t = 0 row see to that) and has a K that is a
    multiple of 8.  Measured with OpenBLAS 0.3.31 at 1 to 4 threads: a K of
    5825 or a single row changes bits, and so do real GEMMs on the real and
    imaginary parts.
    """
    c2 = math.isqrt(math.isqrt(n - 1)) + 1  # about n^(1/4)
    c1 = -(-(math.isqrt(n - 1) + 1) // c2)
    cols = c1 * c2  # C >= ceil(sqrt(n))
    rows = -(-n // cols)  # Q giant rows, then the row at t = 0
    r2 = math.isqrt(rows - 1) + 1
    g1_rows = -(-rows // r2)
    steps = np.array([c2 * dt, dt, r2 * cols * dt, cols * dt])  # baby 1, 2, giant 1, 2
    depth = max(2, c1, c2, g1_rows, r2)
    # terms whose tables fit the budget, a whole number of K blocks, at least one
    width = _EXP_SUM_BLOCK * max(1, _CHUNK_BYTES // (16 * (4 * depth + 1) * _EXP_SUM_BLOCK))
    chunks = list(_time_chunks(rows + 1, 16 * _EXP_SUM_BLOCK))
    g_buf = np.empty(max(sl.stop - sl.start for sl in chunks) * _EXP_SUM_BLOCK, complex)
    b_buf = np.empty(_EXP_SUM_BLOCK * cols, complex)
    # tables and amp exp(i nu t0) of up to ``width`` terms; pages that no slice reaches
    # are never touched, so they take no memory
    table_buf = np.empty((4 * depth + 1) * width, complex)
    total = np.zeros((rows + 1, cols), complex)
    for amp, nu in terms:
        pad = -nu.size % 8
        amp, nu = np.append(amp, np.zeros(pad)), np.append(nu, np.zeros(pad))
        for lo in range(0, nu.size, width):
            amp_w, nu_w = amp[lo:lo + width], nu[lo:lo + width]
            kw = nu_w.size
            tables = _tile(table_buf, 4 * depth + 1, kw)
            w = amp_w  # amp_k exp(i nu_k t0), the factor of the giant steps
            if t0 != 0.0:
                w = _phases(tables[-1:], np.array([t0]), nu_w)[0]
                w *= amp_w
            tables = _power_tables(tables[:-1].reshape(4, depth, kw), steps, nu_w)
            giant_1 = tables[2, :g1_rows]
            giant_1 *= w
            for k_lo in range(0, kw, _EXP_SUM_BLOCK):
                k = slice(k_lo, k_lo + _EXP_SUM_BLOCK)
                b1, b2, g1, g2 = (tables[0, :c1, k], tables[1, :c2, k], giant_1[:, k],
                                  tables[3, :r2, k])
                kb = b1.shape[1]
                b = _tile(b_buf, kb, cols)
                np.multiply(b1.T[:, :, None], b2.T[:, None, :], out=b.reshape(kb, c1, c2))
                for sl in chunks:
                    g = _tile(g_buf, sl.stop - sl.start, kb)
                    for u in range(sl.start // r2, -(-min(sl.stop, rows) // r2)):
                        q0, q1 = max(sl.start, u * r2), min(sl.stop, rows, (u + 1) * r2)
                        np.multiply(g1[u], g2[q0 - u * r2:q1 - u * r2],
                                    out=g[q0 - sl.start:q1 - sl.start])
                    if sl.stop > rows:
                        g[-1] = amp_w[k]
                    total[sl] += g @ b
    total -= total[0 if t0 == 0.0 else -1, 0]
    return total.ravel()[:n]


def _power_tables(tables: np.ndarray, steps: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """exp(i nu_k a steps_l) into the complex (4, depth, K) ``tables`` at [l, a, k].

    Only the bases, a = 1, take sines and cosines (``_phases``); row a = 0 is 1, and
    every other row is a product of two earlier ones, a = floor(a/2) + ceil(a/2),
    so no entry is more than ceil(log2 depth) products from its base.  A power's
    phase error is a times its base's, the rounding of a steps_l nu_k; each table
    has a base of its own, since a power of another table's base would multiply
    that base's error by the ratio of their steps.
    """
    tables[:, 0] = 1.0
    _phases(tables[:, 1], steps, nu)
    for a in range(2, tables.shape[1]):
        np.multiply(tables[:, a // 2], tables[:, (a + 1) // 2], out=tables[:, a])
    return tables


def _phases(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(i a_r b_c) into the complex (rows, cols) ``table``, with no scratch array."""
    phase = np.multiply.outer(a, b, out=table.real)
    np.sin(phase, out=table.imag)
    np.cos(phase, out=phase)
    return table


def _tile(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """A C-ordered (rows, n) view of the front of the flat buffer ``buf``."""
    return buf[:rows * n].reshape(rows, n)


def _time_chunks(n_times: int, bytes_per_time: int, workers: int = 1):
    """Slices covering range(n_times) whose length times ``bytes_per_time`` fits
    _CHUNK_BYTES // ``workers``.

    No slice is 1 wide unless n_times is 1: the last slice takes in a 1-wide
    tail (one time over the budget), and every slice is at least 2 wide.
    numpy sums an (S, 1) block over S pairwise but a wider block row by row,
    so a 1-wide slice would round differently from a whole-array sum.
    """
    step, lo = max(2, _CHUNK_BYTES // workers // bytes_per_time), 0
    while lo < n_times:
        hi = lo + step if lo + step + 1 < n_times else n_times
        yield slice(lo, hi)
        lo = hi


def _workers() -> int:
    """Threads a ``_sweep`` may use: the CPUs this process may run on, at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _sweep(n_times: int, bytes_per_time: int, buffers, group) -> None:
    """Run ``group(chunks, *tile buffers)`` over the time chunks of range(n_times), in parallel.

    With c = ``_workers()``, the count ``_sector_blocks`` sized the blocks for, n =
    min(c, _CHUNK_BYTES // (2 bytes_per_time)) workers take the chunks of
    ``_time_chunks(n_times, bytes_per_time, n)`` in runs of consecutive chunks, one
    run each (fewer workers where there are fewer chunks).  A chunk then fits a 1/n
    share of _CHUNK_BYTES, give or take its one-time tail, and the 2-time floor of
    ``_time_chunks`` is only reached where one worker alone needs it, so the
    workers keep to one budget together.  ``buffers(n, width)`` allocates, once,
    arrays of n equal slices along their first axis for chunks up to ``width``
    times wide, and group k gets slice k of each.  Group 0 runs on the calling
    thread and every other group on a thread of its own, or on the calling thread
    where that thread cannot be started.  The first exception a group raises
    reaches the caller once every group has ended.  Groups write disjoint time
    slices, and the sector sums of ``_add_rows`` do not depend on the chunking, so
    no bit depends on the worker count.
    """
    n = min(_workers(), max(1, _CHUNK_BYTES // (2 * bytes_per_time)))
    chunks = list(_time_chunks(n_times, bytes_per_time, n))
    n = min(n, len(chunks))
    bufs = buffers(n, max(sl.stop - sl.start for sl in chunks))
    errors = []

    def run(k):
        try:
            group(chunks[k * len(chunks) // n:(k + 1) * len(chunks) // n],
                  *(buf[k] for buf in bufs))
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads, inline = [], [0]
    for k in range(1, n):
        thread = threading.Thread(target=run, args=(k,))
        try:
            thread.start()
        except RuntimeError:  # no thread to be had, e.g. no room for its stack
            inline.append(k)
        else:
            threads.append(thread)
    for k in inline:
        run(k)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


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
            if not np.all(np.isfinite(arr)):
                raise NumericsError(f"{name} contains non-finite values")
            setattr(self, name, arr)

    def trace_drift(self) -> float:
        """Max deviation of p_plus + p_minus from 1 over the grid (0 if populations absent)."""
        if self.p_plus is None or self.p_minus is None:
            return 0.0
        return float(np.max(np.abs(self.p_plus + self.p_minus - 1.0)))


def _trajectory(params, t, method: str, projection: str, p_plus, coh) -> Trajectory:
    """A Trajectory with p_minus = 1 - p_plus, or without populations where p_plus is None."""
    return Trajectory(
        times=t, p_plus=p_plus, p_minus=None if p_plus is None else 1.0 - p_plus,
        coh=coh, method=method, projection=projection, params=params,
    )


@dataclass
class ErrorReport:
    """Sup/L2 deviations between two trajectories plus conservation diagnostics.

    The L2 norm is sqrt of the trapezoidal integral of |delta|^2 over the
    common time grid.  ``j3tot_drift`` is filled by callers that have a
    J_3^tot series; it defaults to 0 for methods without one.  The
    fields, in order, are the columns of the CLI's report.csv.
    """

    method_ref: str
    method_other: str
    sup_err_pop: float
    l2_err_pop: float
    sup_err_coh: float
    l2_err_coh: float
    trace_drift: float
    j3tot_drift: float = 0.0


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

"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces every public function of the spinstar layers
by a wrapper that records a span (layer, function, start, end, parent span,
``ru_maxrss`` before and after) in memory.  A function is replaced under every
name that binds it in a loaded ``spinstar`` module, so calls made through an
imported name (``spinstar.masters.solve_volterra_batch``,
``spinstar.cli.exact_trajectory``) are recorded too.  ``layer_metrics()``
turns the spans into the per-layer metrics named in ``PER_LAYER``.

Layers are the modules of ``src/spinstar``; ``masters`` is split into its
``nz2_*`` half and the rest (``tcl2``), ``oracle`` into ``propagate`` and the
projection diagnostics.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import sys
import time
import types

#: every per-layer metric with its unit, in output order
PER_LAYER = (
    ("volterra.self_s", "s"),
    ("volterra.calls", "count"),
    ("volterra.problems", "count"),
    ("volterra.rk4_substeps", "count"),
    ("volterra.rss_hwm_mb", "MB"),
    ("nz2.self_s", "s"),
    ("tcl2.self_s", "s"),
    ("tcl2.sector_points", "count"),
    ("tcl2.temp_mb", "MB"),
    ("tcl2.rss_hwm_mb", "MB"),
    ("exact.self_s", "s"),
    ("exact.sector_points", "count"),
    ("exact.temp_mb", "MB"),
    ("exact.rss_hwm_mb", "MB"),
    ("sectors.self_s", "s"),
    ("sectors.calls", "count"),
    ("oracle.self_s", "s"),
    ("oracle.max_block_dim", "dim"),
    ("oracle.rss_hwm_mb", "MB"),
    ("diagnostics.self_s", "s"),
    ("diagnostics.choi_dim", "dim"),
    ("diagnostics.rss_hwm_mb", "MB"),
    ("cli.csv_s", "s"),
    ("cli.csv_bytes", "B"),
    ("trajectory.compare_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("check.sup_err", "abs"),
    ("check.sup_err_ratio", "ratio"),
)

_ORACLE_LAYERS = {
    "propagate": "oracle",
    "oracle_trajectory": "oracle",
    "check_projection_conditions": "diagnostics",
    "check_plp_zero": "diagnostics",
}
_CLI_FUNCTIONS = ("parse_config", "write_trajectory_csv", "main")


def layer_of(module: str, name: str) -> str | None:
    """The layer a spinstar function belongs to, or None if it is not traced."""
    if name.startswith("_") or not module.startswith("spinstar."):
        return None
    short = module[len("spinstar."):]
    if short == "masters":
        return "nz2" if name.startswith("nz2_") else "tcl2"
    if short == "oracle":
        return _ORACLE_LAYERS.get(name)
    if short == "cli":
        return "cli" if name in _CLI_FUNCTIONS else None
    if short in ("sectors", "exact", "volterra", "trajectory"):
        return short
    return None


# ---------------------------------------------------------------------------
# counters computed from the arguments of a call (shapes, not measurements)
# ---------------------------------------------------------------------------


def _n_jm_sectors(n_spins: int) -> int:
    """Number of (j, m) sectors: sum over j of (2j + 1)."""
    return (n_spins // 2 + 1) * (n_spins - n_spins // 2 + 1)


def _sector_work(n_sectors: int, n_times: int, chunk: int | None = None) -> dict:
    rows = n_times if chunk is None else min(n_times, chunk)
    return {"sector_points": n_sectors * n_times, "temp_mb": n_sectors * rows * 16 / 1e6}


def _exact_work(params, times, *args, **kwargs):
    # exact.py evaluates its sector sums in time chunks of 2048
    return _sector_work(_n_jm_sectors(params.N), len(times), chunk=2048)


def _tcl2_m_work(params, times, *args, **kwargs):
    return _sector_work(params.N + 1, len(times))


def _tcl2_jm_work(params, times, *args, **kwargs):
    return _sector_work(_n_jm_sectors(params.N), len(times))


def _volterra_batch_work(x0, *args, **kwargs):
    return {"problems": len(x0)}


def _rk4_work(y0, generator, times, opts=None):
    """RK4 substeps of the first fixed-step pass of integrate_linear_ode."""
    from spinstar.volterra import SolveOptions

    step = (opts or SolveOptions()).step
    t = [float(x) for x in times]
    gaps = [b - a for a, b in zip(t, t[1:])]
    if gaps:
        step = min(step, max(gaps))
    return {"rk4_substeps": sum(max(1, math.ceil(g / step - 1e-12)) for g in gaps)}


def _propagate_work(params, *args, **kwargs):
    # largest J_3^tot block: C(N, k) + C(N, k - 1) = C(N + 1, k), maximal at k = (N + 1) // 2
    return {"max_block_dim": math.comb(params.N + 1, (params.N + 1) // 2)}


def _choi_work(n_spins, *args, **kwargs):
    return {"choi_dim": 4 ** n_spins}  # kron of two 2^N x 2^N bath operators


def _csv_work(path, *args, **kwargs):
    return {"csv_bytes": os.path.getsize(path)}


_WORK = {
    "population_survival": _exact_work,
    "exact_coherence": _exact_work,
    "tcl2_coherence_m": _tcl2_m_work,
    "tcl2_population_m": _tcl2_m_work,
    "tcl2_jm": _tcl2_jm_work,
    "solve_volterra_batch": _volterra_batch_work,
    "integrate_linear_ode": _rk4_work,
    "propagate": _propagate_work,
    "check_projection_conditions": _choi_work,
    "write_trajectory_csv": _csv_work,
}
#: counters that describe the size of one temporary: aggregated by max, not sum
_MAX_COUNTERS = ("temp_mb", "max_block_dim", "choi_dim")
#: metrics that are the total duration of one function's spans
_INCLUSIVE = {"cli.csv_s": "write_trajectory_csv", "trajectory.compare_s": "compare_trajectories"}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder around the public functions of each layer."""

    def __init__(self):
        self.spans = []  # [layer, name, start, end, parent, rss0, rss1]
        self.counters = {}
        self._stack = []
        self._patches = []

    def _count(self, layer: str, work: dict) -> None:
        for key, value in work.items():
            name = f"{layer}.{key}"
            if key in _MAX_COUNTERS:
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, fn.__name__, 0.0, 0.0, stack[-1] if stack else -1, _rss_mb(), 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[6] = _rss_mb()
                stack.pop()
            if work is not None:
                self._count(layer, work(*args, **kwargs))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under every name that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "spinstar" or name.startswith("spinstar.")) and m is not None]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if obj not in wrappers:
                    layer = layer_of(obj.__module__, obj.__name__)
                    if layer is None:
                        continue
                    wrappers[obj] = self._wrap(layer, obj)
                setattr(module, attr, wrappers[obj])
                self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Self times, entering calls, inclusive RSS rises and the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls, rss, inclusive = {}, {}, {}, {}
        for i, (layer, name, start, end, parent, rss0, rss1) in enumerate(spans):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            outer = parent
            while outer >= 0 and spans[outer][0] != layer:
                outer = spans[outer][4]
            if outer < 0:  # the call enters the layer from outside it
                calls[layer] = calls.get(layer, 0) + 1
                rss[layer] = rss.get(layer, 0.0) + (rss1 - rss0)
        by_key = {"self_s": self_s, "rss_hwm_mb": rss, "calls": calls}
        out = {}
        for name, _ in PER_LAYER:
            layer, key = name.split(".", 1)
            if layer in ("trace", "check"):
                continue  # filled in by run.py
            if name in _INCLUSIVE:
                out[name] = inclusive.get(_INCLUSIVE[name], 0.0)
            elif key in by_key:
                out[name] = by_key[key].get(layer, 0)
            else:
                out[name] = self.counters.get(name, 0)
        return out

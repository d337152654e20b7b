"""Command-line front end: scenario runs, method comparisons, figure presets.

Subcommands:

* ``run --config FILE [--out DIR]``: compute every requested method and
  write one CSV per method.
* ``compare --config FILE [--out DIR]``: additionally write ``report.csv``
  with error metrics of every method against the first-listed one.
* ``figure K [--t-max X] [--dt X] [--out DIR]``: canned parameter sets
  (presets 2..7) reproducing the published comparison scenarios.

Config files are line-oriented ``key=value`` with ``#`` comments; the keys
are the fields of :class:`ScenarioConfig` plus ``alpha``.  Exit codes: 0
success, 2 config error, 3 numeric failure, 4 capacity exceeded (the oracle
cap or an allocation that does not fit in memory).

Reruns write byte-identical files.  Every file but ``oracle_none.csv`` and
its ``report.csv`` row is also byte-identical across BLAS thread counts; the
oracle's ``eigh`` is byte-identical only at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .exact import exact_trajectory
from .masters import _check_standard_start, _solve, standard_projection_population
from .oracle import CapacityError
from .sectors import SystemParams, coupling_from_alpha
from .trajectory import ErrorReport, Trajectory, compare_trajectories
from .volterra import NumericsError, SolveOptions

__all__ = ["main", "ScenarioConfig", "parse_config", "FIGURE_PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CAPACITY = 4

_VALID_METHODS = ("exact", "tcl2", "nz2", "standard", "oracle")
_CSV_HEADER = "t,p_plus,p_minus,coh_re,coh_im,coh_abs"


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass
class ScenarioConfig:
    """One scenario, checked once on construction (A already derived from alpha).

    The fields are the config-file keys, and config files and figure presets
    alike build one, so ``__post_init__`` is the CLI's only scenario check.
    It holds the rules that only the CLI has and builds the owners of the
    others: SystemParams, SolveOptions, the oracle and standard guards.  Their
    ValueError becomes ConfigError; CapacityError passes through.
    """

    N: int
    omega0: float
    A: float
    t_max: float
    dt: float
    methods: tuple[str, ...]
    projection: str = "m"
    initial_p_plus: float = 1.0
    coh_re: float = 0.0
    coh_im: float = 0.0
    couplings: tuple[float, ...] | None = None
    solver_step: float | None = None
    solver_tolerance: float | None = None
    output_dir: str = "."

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be finite and > 0")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ConfigError("t_max must be finite and >= dt")
        if not self.methods:
            raise ConfigError("methods list is empty")
        bad = [m for m in self.methods if m not in _VALID_METHODS]
        if bad:
            raise ConfigError(
                f"unknown methods: {', '.join(bad)} (valid: {', '.join(_VALID_METHODS)})"
            )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods list contains duplicates")
        if self.projection not in ("m", "jm"):
            raise ConfigError("projection must be 'm' or 'jm'")
        if self.couplings is not None and "oracle" not in self.methods:
            raise ConfigError("couplings are supported by the oracle method only")
        for keys, owner in (
            ("N, omega0, A, initial_p_plus, coh_re, coh_im", self.params),
            ("solver_step, solver_tolerance", self.solve_options),
            ("N, couplings, initial_p_plus", self._method_guards),
        ):
            try:
                owner()
            except CapacityError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{keys}: {exc}") from None

    def _method_guards(self) -> None:
        if "oracle" in self.methods:
            oracle_mod._require_capacity(self.N, oracle_mod.MAX_BATH_SPINS, "the spectral oracle")
            oracle_mod._check_couplings(self.N, self.couplings)
        if "standard" in self.methods:
            _check_standard_start(self.initial_p_plus)

    def params(self) -> SystemParams:
        return SystemParams(
            N=self.N,
            A=self.A,
            omega0=self.omega0,
            initial_p_plus=self.initial_p_plus,
            initial_coh=complex(self.coh_re, self.coh_im),
        )

    def times(self) -> np.ndarray:
        n_steps = int(math.floor(self.t_max / self.dt + 1e-9))
        return self.dt * np.arange(n_steps + 1)

    def solve_options(self) -> SolveOptions | None:
        if self.solver_step is None and self.solver_tolerance is None:
            return None
        kwargs = {}
        if self.solver_step is not None:
            kwargs["step"] = self.solver_step
        if self.solver_tolerance is not None:
            kwargs["tolerance"] = self.solver_tolerance
        return SolveOptions(**kwargs)


def _list(read):
    return lambda text: tuple(read(v) for v in text.split(",") if v.strip())


#: how config text becomes a value, per ScenarioConfig field annotation (without "| None")
_READERS = {
    "int": ("an integer", int),
    "float": ("a number", float),
    "str": ("a string", str),
    "tuple[str, ...]": ("a list", _list(str.strip)),
    "tuple[float, ...]": ("a list of numbers", _list(float)),
}


def _parse_lines(text: str) -> list[tuple[str, str]]:
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        items.append((key.strip(), value.strip()))
    return items


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read a key=value scenario file; the keys are ScenarioConfig's fields plus alpha."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    seen = {}
    for key, value in _parse_lines(text):
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value

    schema = {f.name: f for f in fields(ScenarioConfig)}
    unknown = sorted(set(seen) - set(schema) - {"alpha"})
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    if ("A" in seen) == ("alpha" in seen):
        raise ConfigError("exactly one of the keys 'A' and 'alpha' must be given")
    for f in schema.values():
        if f.name not in seen and f.name != "A" and f.default is MISSING:
            raise ConfigError(f"missing required key {f.name!r}")

    values = {}
    for key, raw in seen.items():
        annotation = schema[key].type if key != "alpha" else "float"
        kind, read = _READERS[annotation.removesuffix(" | None")]
        try:
            values[key] = read(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: not {kind}: {raw!r}") from None
    if "alpha" in values:
        try:
            values["A"] = coupling_from_alpha(values["N"], values["omega0"], values.pop("alpha"))
        except ValueError as exc:
            raise ConfigError(f"alpha: {exc}") from None
    return ScenarioConfig(**values)


# ---------------------------------------------------------------------------
# method execution
# ---------------------------------------------------------------------------


def _run_method(cfg: ScenarioConfig, method: str) -> Trajectory:
    """Compute one method, the same way for ``run`` and ``compare``."""
    params = cfg.params()
    t = cfg.times()
    if method == "exact":
        return exact_trajectory(params, t)
    if method == "oracle":
        return oracle_mod.propagate(params, t, couplings=cfg.couplings).trajectory()
    if method == "standard":
        return standard_projection_population(params, t)
    return _solve(params, t, method, cfg.projection, opts=cfg.solve_options())[0]  # tcl2, nz2


def method_filename(method: str, projection: str) -> str:
    tag = {"exact": "none", "oracle": "none", "standard": "product"}.get(
        method, projection
    )
    return f"{method}_{tag}.csv"


def _fmt(x: float) -> str:
    return repr(float(x))


def _text(value) -> str:
    """A field value as written to report.csv: floats shortest round-trip, tuples comma-joined."""
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return _fmt(value) if isinstance(value, float) else str(value)


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Shortest round-trip decimal CSV; absent components written as 0."""
    zeros = np.zeros(traj.times.size)
    p_plus = traj.p_plus if traj.p_plus is not None else zeros
    p_minus = traj.p_minus if traj.p_minus is not None else zeros
    coh = traj.coh if traj.coh is not None else zeros.astype(complex)
    # whole columns as Python floats, each written as its repr, as _fmt does; |coh| is
    # Python's abs, which rounds as numpy's scalar abs does (np.abs on an array may not)
    columns = [np.asarray(col, dtype=float).tolist()
               for col in (traj.times, p_plus, p_minus, coh.real, coh.imag)]
    rows = zip(*columns, map(abs, np.asarray(coh, dtype=complex).tolist()))
    lines = map("%r,%r,%r,%r,%r,%r".__mod__, rows)
    path.write_text("\n".join([_CSV_HEADER, *lines]) + "\n")


def _resolved_config_lines(cfg: ScenarioConfig) -> list[str]:
    return [f"# resolved_config: {k}={_text(v)}" for k, v in asdict(cfg).items() if v is not None]


def _report(cfg: ScenarioConfig, results) -> str:
    """report.csv: the resolved config, then every method against the first one."""
    lines = _resolved_config_lines(cfg)
    lines.append(",".join(f.name for f in fields(ErrorReport)))
    ref = results[0][1]
    for _, traj in results[1:]:
        lines.append(",".join(map(_text, astuple(compare_trajectories(ref, traj)))))
    return "\n".join(lines) + "\n"


def _execute(cfg: ScenarioConfig, out_dir: Path, with_report: bool) -> None:
    """Compute every method before writing anything, so a failing run leaves no files."""
    results = [(method, _run_method(cfg, method)) for method in cfg.methods]
    report = _report(cfg, results) if with_report else None
    out_dir.mkdir(parents=True, exist_ok=True)
    for method, traj in results:
        write_trajectory_csv(out_dir / method_filename(method, cfg.projection), traj)
    if report is not None:
        (out_dir / "report.csv").write_text(report)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

#: Published comparison scenarios.  All run at N=101, omega0=1.  Coherence
#: figures start from the pure state (p_plus, coh) = (1/2, 1/2); population
#: figures from p_plus = 1 as printed.  The short default window is
#: 600/omega0; "long" variants use 8000/omega0 (the captions give no numeric
#: windows, so these are documented choices, overridable via --t-max/--dt).
FIGURE_PRESETS = {
    2: dict(alpha=0.1, methods=("exact", "nz2"), projection="m",
            t_max=600.0, dt=0.1, p0=0.5, coh0=0.5,
            note="exact vs NZ2-m coherence, alpha=0.1"),
    3: dict(alpha=0.1, methods=("exact", "tcl2"), projection="m",
            t_max=600.0, dt=0.1, p0=0.5, coh0=0.5,
            note="exact vs TCL2-m coherence, alpha=0.1"),
    4: dict(alpha=0.1, methods=("exact", "tcl2"), projection="m",
            t_max=8000.0, dt=0.5, p0=0.5, coh0=0.5,
            note="long-window variant of preset 3 (revivals)"),
    5: dict(alpha=0.5, methods=("exact", "tcl2", "standard"), projection="m",
            t_max=300.0, dt=0.1, p0=1.0, coh0=0.0,
            note="populations: exact vs TCL2-m vs standard, alpha=0.5"),
    6: dict(alpha=0.5, methods=("exact", "tcl2"), projection="m",
            t_max=8000.0, dt=0.5, p0=1.0, coh0=0.0,
            note="long-window populations, alpha=0.5"),
    7: dict(alpha=0.1, methods=("exact", "tcl2"), projection="jm",
            t_max=8000.0, dt=0.5, p0=0.5, coh0=0.5,
            note="exact vs TCL2-jm coherence, long window"),
}


def figure_config(preset: int, t_max=None, dt=None, out_dir=None) -> ScenarioConfig:
    if preset not in FIGURE_PRESETS:
        raise ConfigError(
            f"unknown figure preset {preset}; available: "
            f"{', '.join(str(k) for k in sorted(FIGURE_PRESETS))}"
        )
    p = FIGURE_PRESETS[preset]
    n_spins = 101
    return ScenarioConfig(
        N=n_spins,
        omega0=1.0,
        A=coupling_from_alpha(n_spins, 1.0, p["alpha"]),
        t_max=float(t_max if t_max is not None else p["t_max"]),
        dt=float(dt if dt is not None else p["dt"]),
        methods=p["methods"],
        projection=p["projection"],
        initial_p_plus=p["p0"],
        coh_re=p["coh0"],
        coh_im=0.0,
        output_dir=str(out_dir) if out_dir is not None else f"figure{preset}",
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstar",
        description="Central spin-1/2 in a uniform spin star: exact, TCL2, NZ2 "
        "and reference dynamics, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config, one CSV per method")
    p_run.add_argument("--config", required=True, help="key=value scenario file")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_cmp = sub.add_parser(
        "compare", help="run a scenario and write report.csv vs the first method"
    )
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default=None)

    preset_help = "; ".join(
        f"{k}: {v['note']}" for k, v in sorted(FIGURE_PRESETS.items())
    )
    p_fig = sub.add_parser(
        "figure",
        help="emit a published comparison scenario (presets 2..7)",
        description="Presets (N=101, omega0=1): " + preset_help,
    )
    p_fig.add_argument("preset", type=int)
    p_fig.add_argument("--t-max", type=float, default=None, dest="t_max")
    p_fig.add_argument("--dt", type=float, default=None)
    p_fig.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "compare"):
            cfg = parse_config(args.config)
            if len(cfg.methods) < 2 and args.command == "compare":
                raise ConfigError("compare needs at least 2 methods")
            out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
            _execute(cfg, out_dir, with_report=(args.command == "compare"))
        else:
            cfg = figure_config(args.preset, args.t_max, args.dt, args.out)
            _execute(cfg, Path(cfg.output_dir), with_report=False)
    except (CapacityError, MemoryError) as exc:
        print(f"spinstar: capacity exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"spinstar: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"spinstar: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

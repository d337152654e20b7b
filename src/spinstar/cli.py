"""Command-line front end: scenario runs, method comparisons, figure presets.

Subcommands:

* ``run --config FILE [--out DIR]``: compute every requested method and
  write one CSV per method.
* ``compare --config FILE [--out DIR]``: additionally write ``report.csv``
  with error metrics of every method against the first-listed one.
* ``figure K [--t-max X] [--dt X] [--out DIR]``: canned parameter sets
  (presets 2..7) reproducing the published comparison scenarios.

Config files are line-oriented ``key=value`` with ``#`` comments.  Exit
codes: 0 success, 2 config error, 3 numeric failure, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .exact import exact_trajectory
from .masters import _solve, standard_projection_population
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
    """Resolved scenario parameters (A already derived from alpha if given).

    The time window is checked here, so config files and figure overrides
    share one check.
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
    """Read and validate a key=value scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    seen = {}
    for key, value in _parse_lines(text):
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value

    known = {
        "N", "omega0", "A", "alpha", "t_max", "dt", "methods", "projection",
        "initial_p_plus", "coh_re", "coh_im", "couplings", "solver_step",
        "solver_tolerance", "output_dir",
    }
    unknown = sorted(set(seen) - known)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")

    def need(key):
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")
        return seen[key]

    def as_float(key, value):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: not a number: {value!r}") from None

    n_raw = need("N")
    try:
        n_spins = int(n_raw)
    except ValueError:
        raise ConfigError(f"key 'N': not an integer: {n_raw!r}") from None
    if n_spins < 1:
        raise ConfigError("N must be >= 1")
    omega0 = as_float("omega0", need("omega0"))
    if not (omega0 > 0.0):
        raise ConfigError("omega0 must be > 0")

    if ("A" in seen) == ("alpha" in seen):
        raise ConfigError("exactly one of the keys 'A' and 'alpha' must be given")
    if "A" in seen:
        coupling = as_float("A", seen["A"])
    else:
        coupling = coupling_from_alpha(n_spins, omega0, as_float("alpha", seen["alpha"]))

    t_max = as_float("t_max", need("t_max"))
    dt = as_float("dt", need("dt"))

    methods = tuple(m.strip() for m in need("methods").split(",") if m.strip())
    if not methods:
        raise ConfigError("methods list is empty")
    bad = [m for m in methods if m not in _VALID_METHODS]
    if bad:
        raise ConfigError(
            f"unknown methods: {', '.join(bad)} (valid: {', '.join(_VALID_METHODS)})"
        )
    if len(set(methods)) != len(methods):
        raise ConfigError("methods list contains duplicates")

    projection = seen.get("projection", "m")
    if projection not in ("m", "jm"):
        raise ConfigError("projection must be 'm' or 'jm'")

    p0 = as_float("initial_p_plus", seen.get("initial_p_plus", "1"))
    if not (0.0 <= p0 <= 1.0):
        raise ConfigError("initial_p_plus must lie in [0, 1]")
    coh_re = as_float("coh_re", seen.get("coh_re", "0"))
    coh_im = as_float("coh_im", seen.get("coh_im", "0"))

    couplings = None
    if "couplings" in seen:
        if "oracle" not in methods:
            raise ConfigError("couplings are supported by the oracle method only")
        couplings = tuple(
            as_float("couplings", v) for v in seen["couplings"].split(",") if v.strip()
        )
        if len(couplings) != n_spins:
            raise ConfigError(
                f"couplings list has {len(couplings)} entries, expected N = {n_spins}"
            )

    if "oracle" in methods and n_spins > oracle_mod.MAX_BATH_SPINS:
        raise CapacityError(
            f"oracle requested with N = {n_spins} > {oracle_mod.MAX_BATH_SPINS}"
        )

    solver_step = as_float("solver_step", seen["solver_step"]) if "solver_step" in seen else None
    if solver_step is not None and not (solver_step > 0.0):
        raise ConfigError("solver_step must be > 0")
    solver_tolerance = (
        as_float("solver_tolerance", seen["solver_tolerance"])
        if "solver_tolerance" in seen
        else None
    )
    if solver_tolerance is not None and not (solver_tolerance > 0.0):
        raise ConfigError("solver_tolerance must be > 0")

    return ScenarioConfig(
        N=n_spins,
        omega0=omega0,
        A=coupling,
        t_max=t_max,
        dt=dt,
        methods=methods,
        projection=projection,
        initial_p_plus=p0,
        coh_re=coh_re,
        coh_im=coh_im,
        couplings=couplings,
        solver_step=solver_step,
        solver_tolerance=solver_tolerance,
        output_dir=seen.get("output_dir", "."),
    )


# ---------------------------------------------------------------------------
# method execution
# ---------------------------------------------------------------------------


def _run_method(cfg: ScenarioConfig, method: str, j3tot: bool = False):
    """Compute one method; returns (Trajectory, J_3^tot series or None).

    The series is computed for TCL2 and NZ2 when ``j3tot`` is set, without
    sector-resolved arrays; the other methods have none.
    """
    params = cfg.params()
    t = cfg.times()
    if method == "exact":
        return exact_trajectory(params, t), None
    if method == "oracle":
        return (
            oracle_mod.propagate(params, t, couplings=cfg.couplings).trajectory(),
            None,
        )
    if method == "standard":
        return standard_projection_population(params, t), None
    if method in ("tcl2", "nz2"):
        traj, _, q = _solve(
            params, t, method, cfg.projection, opts=cfg.solve_options(), j3tot=j3tot
        )
        return traj, q
    raise ConfigError(f"unknown method {method!r}")


def method_filename(method: str, projection: str) -> str:
    tag = {"exact": "none", "oracle": "none", "standard": "product"}.get(
        method, projection
    )
    return f"{method}_{tag}.csv"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Shortest round-trip decimal CSV; absent components written as 0."""
    zeros = np.zeros(traj.times.size)
    p_plus = traj.p_plus if traj.p_plus is not None else zeros
    p_minus = traj.p_minus if traj.p_minus is not None else zeros
    coh = traj.coh if traj.coh is not None else zeros.astype(complex)
    lines = [_CSV_HEADER]
    for i, t in enumerate(traj.times):
        c = coh[i]
        lines.append(
            ",".join(
                (_fmt(t), _fmt(p_plus[i]), _fmt(p_minus[i]),
                 _fmt(c.real), _fmt(c.imag), _fmt(abs(c)))
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _drift_per_unit_time(q: np.ndarray | None, times: np.ndarray) -> float:
    """max over t > 0 of |q(t) - q(0)| / t; 0 without a series."""
    if q is None or q.size < 2:
        return 0.0
    return float(np.max(np.abs(q - q[0])[1:] / times[1:]))


def _resolved_config_lines(cfg: ScenarioConfig) -> list[str]:
    vals = [
        ("N", str(cfg.N)), ("omega0", _fmt(cfg.omega0)), ("A", _fmt(cfg.A)),
        ("t_max", _fmt(cfg.t_max)), ("dt", _fmt(cfg.dt)),
        ("methods", ",".join(cfg.methods)), ("projection", cfg.projection),
        ("initial_p_plus", _fmt(cfg.initial_p_plus)),
        ("coh_re", _fmt(cfg.coh_re)), ("coh_im", _fmt(cfg.coh_im)),
    ]
    if cfg.couplings is not None:
        vals.append(("couplings", ",".join(_fmt(c) for c in cfg.couplings)))
    if cfg.solver_step is not None:
        vals.append(("solver_step", _fmt(cfg.solver_step)))
    if cfg.solver_tolerance is not None:
        vals.append(("solver_tolerance", _fmt(cfg.solver_tolerance)))
    vals.append(("output_dir", cfg.output_dir))
    return [f"# resolved_config: {k}={v}" for k, v in vals]


def _execute(cfg: ScenarioConfig, out_dir: Path, with_report: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for method in cfg.methods:
        traj, j3tot = _run_method(cfg, method, j3tot=with_report)
        results.append((method, traj, j3tot))
        write_trajectory_csv(out_dir / method_filename(method, cfg.projection), traj)
    if not with_report:
        return
    ref_method, ref, _ = results[0]
    lines = _resolved_config_lines(cfg)
    lines.append(",".join(ErrorReport.FIELDS))
    for method, traj, j3tot in results[1:]:
        rep = compare_trajectories(
            ref, traj, j3tot_drift=_drift_per_unit_time(j3tot, traj.times)
        )
        lines.append(
            ",".join(
                (rep.method_ref, rep.method_other,
                 _fmt(rep.sup_err_pop), _fmt(rep.l2_err_pop),
                 _fmt(rep.sup_err_coh), _fmt(rep.l2_err_coh),
                 _fmt(rep.trace_drift), _fmt(rep.j3tot_drift))
            )
        )
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n")


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
    except (ConfigError, ValueError) as exc:
        if isinstance(exc, CapacityError):
            print(f"spinstar: capacity exceeded: {exc}", file=sys.stderr)
            return EXIT_CAPACITY
        print(f"spinstar: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"spinstar: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

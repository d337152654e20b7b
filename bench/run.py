"""spinstar benchmark harness.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload of ``bench/spec.json`` for ``S`` seconds,
one fresh child process (``bench/child.py``) at a time, and prints a summary
followed by one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_s``: median time of one workload run inside the child, first solve
  to last output written (imports excluded);
* ``setup_s``: median time from child start until spinstar is imported and
  the inputs are built;
* ``peak_rss_mb``: median peak RSS of the child, from its own rusage.

Times are reported in reference-host seconds: each repetition's times are
multiplied by ``CALIB_REF_S`` over the mean of two runs of
``child.calibrate()``, a fixed numpy computation that uses no spinstar code,
taken just before and just after its timed run (after it only, when traced).
A shared host changes speed by up to a third over seconds to minutes, and
this takes that out; the raw medians and every raw sample are printed in the
summary.

``fail_frac`` (failed / attempted) is printed in the summary; the JSON
carries the same counts as ``attempted`` and ``failed``.  A repetition fails
on an exception, a nonzero CLI exit, a missed correctness check, or outputs
whose bytes differ from the first repetition (all repetitions of a run use
the same seed).

With ``--trace 1`` untraced and traced repetitions alternate, and the
metrics are the per-layer ones of ``bench/tracing.py`` (medians over the
traced repetitions), the tracing overhead and the worst correctness check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: a run must end within 180 s; no child may run past this many seconds
RUN_LIMIT_S = 170.0
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: median of child.calibrate() on the reference host; times are reported in its seconds
CALIB_REF_S = 0.125


def _child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: str(threads) for var in _BLAS_VARS})
    return env


def _spawn(cmd, env, cwd, stderr_path: Path, deadline: float):
    """Run one child; returns (exit code, peak RSS in MB, timed out)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # the child is reaped; tell Popen so it does not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, timed_out


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or None


def _tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(errors="replace").strip().splitlines() if path.exists() else []
    return " | ".join(text[-lines:])


def _worst_check(checks):
    """The check with the largest error / tolerance ratio."""
    return max(checks, key=lambda c: c[1] / c[2] if c[2] > 0 else math.inf)


def run_reps(args, wl_spec, inputs, state, work: Path, env, root: Path):
    """The repetition loop; returns one record per attempted repetition."""
    config = work / "scenario.cfg"
    if wl_spec["kind"] == "cli":
        workloads.write_config(inputs, state, config)
    start = time.monotonic()
    reps, reference = [], None
    while True:
        index = len(reps)
        elapsed = time.monotonic() - start
        finishing_pair = args.trace and index % 2 == 1
        if index and elapsed >= args.seconds and not finishing_pair:
            break
        traced = bool(args.trace) and index % 2 == 1
        job = {
            "kind": wl_spec["kind"], "inputs": inputs, "state": state, "trace": traced,
            "config": str(config), "out_dir": str(work / f"out-{index}"),
            "result": str(work / f"result-{index}.json"),
        }
        job_path = work / f"job-{index}.json"
        stderr_path = work / f"stderr-{index}.txt"
        job["t_spawn"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        code, rss_mb, timed_out = _spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)], env, root,
            stderr_path, start + RUN_LIMIT_S,
        )
        rep = {"traced": traced, "peak_rss_mb": rss_mb, "ok": False}
        result_path = Path(job["result"])
        if timed_out:
            rep["reason"] = f"killed after the {RUN_LIMIT_S:.0f} s run limit"
        elif code != 0 or not result_path.exists():
            rep["reason"] = f"child exit {code}: {_tail(stderr_path)}"
        else:
            rep.update(json.loads(result_path.read_text()))
            missed = [c for c in rep["checks"] if not c[1] <= c[2]]
            reference = reference or rep["digest"]
            if missed:
                rep["reason"] = "check missed: " + ", ".join(
                    f"{n} {e:.3e} > {t:.3e}" for n, e, t in missed)
            elif rep["digest"] != reference:
                rep["reason"] = "outputs differ from the first repetition with this seed"
            else:
                rep["ok"] = True
        reps.append(rep)
        shutil.rmtree(work / f"out-{index}", ignore_errors=True)
        if timed_out:
            break
    return reps


def _reference_s(rep: dict, name: str) -> float:
    """A repetition's time in reference-host seconds, scaled by its host calibration."""
    return rep[name] * CALIB_REF_S / statistics.fmean(rep["calib_s"])


def _summary_line(name, unit, values) -> str:
    if not values:
        return f"{name:<24} no samples"
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"{name:<24} median {statistics.median(values):.6g} {unit}  "
            f"q1 {q[0]:.6g}  q3 {q[2]:.6g}  min {min(values):.6g}  max {max(values):.6g}"
            f"  n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinstar" / "__init__.py").is_file():
        print(f"bench: no spinstar sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl_spec = spec["workloads"][args.workload]
    inputs = wl_spec["inputs"]
    state = workloads.draw_state(args.seed)
    nproc = len(os.sched_getaffinity(0))
    threads = min(spec["blas_threads"], nproc)
    env = _child_env(root, threads)

    work = BENCH_DIR / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probe = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "--probe"],
                               env=env, cwd=root, capture_output=True, text=True)
        if probe.returncode != 0:
            print(f"bench: cannot import spinstar: {probe.stderr.strip()}", file=sys.stderr)
            return 1
        manifest = {
            "workload": args.workload, "seed": args.seed, "state": state, "inputs": inputs,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(root), "source_sha256": _source_digest(root),
            "nproc": nproc, "blas_threads": threads, **json.loads(probe.stdout),
        }
        reps = run_reps(args, wl_spec, inputs, state, work, env, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    failed = [r for r in reps if not r["ok"]]
    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for r in failed:
        print(f"FAILED repetition: {r['reason']}")
    if not plain or (args.trace and not traced):
        print("bench: no successful repetition to report", file=sys.stderr)
        return 1

    raw = {name: [r[name] for r in plain] for name, _ in END_TO_END}
    series = {name: [_reference_s(r, name) for r in plain] if unit == "s" else raw[name]
              for name, unit in END_TO_END}
    for name, unit in END_TO_END:
        print(_summary_line(name, unit, series[name]))
    calib = [c for r in plain for c in r["calib_s"]]
    print(_summary_line("host calibration", "s", calib) + f" (reference {CALIB_REF_S} s)")
    for name in ("wall_s", "setup_s"):
        print(_summary_line(f"raw {name}", "s", raw[name]))
    print("samples " + json.dumps({"calib_s": [r["calib_s"] for r in plain], **raw}))
    print(f"{'fail_frac':<24} {len(failed) / len(reps):.6g} ({len(failed)}/{len(reps)})"
          f"  n={len(reps)}")
    checked = [c for r in reps if "checks" in r for c in r["checks"]]
    worst = _worst_check(checked) if checked else None
    if worst:
        print(f"{'worst check':<24} {worst[0]} {worst[1]:.3e} (tolerance {worst[2]:.3e})")

    if args.trace:
        layers = [r["layers"] for r in traced]
        values = {name: statistics.median(m[name] for m in layers)
                  for name, _ in tracing.PER_LAYER if name in layers[0]}
        values["trace.overhead_frac"] = (
            statistics.median(_reference_s(r, "wall_s") for r in traced)
            / statistics.median(series["wall_s"]) - 1.0)
        values["check.sup_err"] = worst[1]
        values["check.sup_err_ratio"] = worst[1] / worst[2]
        units = dict(tracing.PER_LAYER)
        for name, _ in tracing.PER_LAYER:
            print(f"{name:<24} {values[name]:.6g} {units[name]}  n={len(layers)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
The harness runs in a temporary copy of the checkout whose ``spec.json`` has
the tiny inputs below in place of the benchmark's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
_COPY_IGNORE = shutil.ignore_patterns("_work", "__pycache__")

TINY_INPUTS = {
    "nz2_memory": {"command": "compare", "config": {
        "N": 21, "omega0": 1.0, "alpha": 0.1, "t_max": 2.0, "dt": 0.1,
        "methods": "exact,tcl2,nz2", "projection": "m"}},
    "closed_form_long": {"command": "compare", "config": {
        "N": 21, "omega0": 1.0, "alpha": 0.1, "t_max": 20.0, "dt": 0.5,
        "methods": "exact,tcl2", "projection": "jm"}},
    "large_bath": {"N": 41, "omega0": 1.0, "alpha": 0.1,
                   "grid": {"first": 0.1, "last": 50.0, "points": 20},
                   "calls": SPEC["workloads"]["large_bath"]["inputs"]["calls"]},
    "oracle_verify": {
        "propagate": {"N": 4, "A": 0.1, "omega0": 1.0, "dt": 0.1, "points": 51, "resolve": "jm"},
        "projection_conditions": {"N": 3, "family": "jm"},
        "plp_zero": {"N": 3, "A": 0.2, "omega0": 1.0, "family": "jm"}},
}


def _bench(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def tiny_checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=_COPY_IGNORE)
    shutil.copytree(BENCH, root / "bench", ignore=_COPY_IGNORE)
    spec = json.loads(json.dumps(SPEC))
    for name, inputs in TINY_INPUTS.items():
        spec["workloads"][name]["inputs"] = inputs
    (root / "bench" / "spec.json").write_text(json.dumps(spec))
    return root


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])
    assert list(TINY_INPUTS) == list(SPEC["workloads"])
    for w in BENCHMARK["workloads"]:
        assert w["why"] == SPEC["workloads"][w["name"]]["why"]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    mapped = [name for layer in SPEC["layers"].values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(name for name, _ in tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
def test_tiny_run_reports_every_metric(tiny_checkout, workload, trace):
    done = _bench(tiny_checkout, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert (metrics["volterra.calls"] > 0) == (workload == "nz2_memory")


def test_seed_draws_only_a_physical_state_with_coherence():
    for seed in range(50):
        s = run.workloads.draw_state(seed)
        bound = s["initial_p_plus"] * (1.0 - s["initial_p_plus"])
        coh2 = s["coh_re"] ** 2 + s["coh_im"] ** 2
        assert 0.2 * bound <= coh2 <= bound
    assert run.workloads.draw_state(7) == run.workloads.draw_state(7)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=_COPY_IGNORE)
    done = _bench(tmp_path, "--workload", "nz2_memory", "--seed", "1", "--seconds", "1",
                  "--trace", "0", timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

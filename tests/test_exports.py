"""Every exported name resolves, so a deleted function cannot linger in an export list,
and every name the docs import from ``spinstar`` is exported, so a deletion cannot
leave the README or a demo behind.  A CLI run loads no third-party package but numpy.
No line of the package is wider than 100 columns.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinstar

MODULES = [spinstar] + [
    importlib.import_module(f"spinstar.{m.name}") for m in pkgutil.iter_modules(spinstar.__path__)
]

ROOT = Path(__file__).resolve().parents[1]
DOCS = {
    "README.md": "\n".join(
        re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    ),
    **{f"demos/{p.name}": p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))},
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("source", DOCS.values(), ids=DOCS.keys())
def test_documented_imports_are_exported(source):
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "spinstar"
        for alias in node.names
    ]
    assert imported
    assert not set(imported) - set(spinstar.__all__)


def test_a_cli_run_loads_no_package_but_numpy_and_the_stdlib(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter that runs
    # compare of exact, TCL2 and NZ2 (81 uniform times, so the exponential-sum
    # kernel and the TCL2 Taylor branch run) imports nothing else from outside
    # the standard library.  Top-level names loaded with numpy (and by site
    # hooks) are the baseline.
    config = tmp_path / "scenario.cfg"
    config.write_text("N = 6\nomega0 = 1.0\nalpha = 0.5\nt_max = 40.0\ndt = 0.5\n"
                      "methods = exact,tcl2,nz2\nprojection = jm\n")
    child = """
import sys
import numpy
before = {name.partition(".")[0] for name in sys.modules}
import spinstar.cli
assert spinstar.cli.main(sys.argv[1:]) == 0
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(sorted(loaded - set(sys.stdlib_module_names) - {"spinstar"}))
"""
    argv = ["compare", "--config", str(config), "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_no_package_line_is_wider_than_100_columns():
    wide = [f"{path.name}:{n}: {len(line)}"
            for path in sorted((ROOT / "src" / "spinstar").glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1) if len(line) > 100]
    assert not wide

"""Every exported name resolves, so a deleted function cannot linger in an export list,
and every name the docs import from ``spinstar`` is exported, so a deletion cannot
leave the README or a demo behind.  A CLI run loads no third-party package but numpy.
No line of the package is wider than 100 columns, no private module-level name of it is
left without a user in it, and no defaulted parameter of a private function without a call
that passes it.
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


def test_every_private_module_name_has_a_user_in_the_package():
    # a private name defined at module level (def, class or assignment) that no line of
    # src/spinstar reads outside its own definition is code that production does not
    # reach; tests do not count as users.  Names are matched by spelling, across modules
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "spinstar").glob("*.py"))}
    defined = {}  # name -> (module path, first line, last line) of its definition
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined.update((name, (path, node.lineno, node.end_lineno)) for name in names
                           if name.startswith("_") and not name.startswith("__"))
    used = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "id", None) if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name in defined:
                where, first, last = defined[name]
                if path != where or not first <= node.lineno <= last:
                    used.add(name)
    assert sorted(set(defined) - used) == []


def test_every_defaulted_parameter_of_a_private_function_is_passed_in_the_package():
    # the parameter counterpart of the test above: a default that no call in src/spinstar
    # overrides is a parameter that production does not use.  Calls are matched to
    # functions by spelling, across modules; a call with *args or **kwargs passes every
    # parameter, and the self or cls of a method is not counted as a position
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "spinstar").glob("*.py"))]
    defaulted = {}  # function name -> [(position or None if keyword-only, parameter name)]
    for tree in trees:
        methods = {id(fn) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for fn in node.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.endswith("__")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = 1 if id(node) in methods and positional else 0
            params = [(i - first, a.arg) for i, a in enumerate(positional)][
                len(positional) - len(args.defaults):]
            params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if params:
                defaulted.setdefault(node.name, []).extend(params)
    passed = set()
    for tree in trees:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaulted:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            keywords = {k.arg for k in call.keywords}
            passed.update((name, arg) for position, arg in defaulted[name]
                          if starred or arg in keywords
                          or position is not None and position < len(call.args))
    unused = sorted({(name, arg) for name, params in defaulted.items() for _, arg in params}
                    - passed)
    assert unused == []


def test_only_the_route_reaches_the_kernel_and_only_the_tiles_sweep():
    # one route for every method: trajectory._sector_sums alone runs the
    # exponential-sum kernel, and trajectory._tiles alone sizes and runs the tile
    # sweep, so no method keeps a route or a tile loop of its own.  A name counts
    # wherever it is read or imported, not only where it is called
    users = {"_exp_sum": set(), "_sweep": set(), "_sector_blocks": set()}
    for path in sorted((ROOT / "src" / "spinstar").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                         else [node.id] if isinstance(node, ast.Name)
                         else [node.attr] if isinstance(node, ast.Attribute) else [])
                for name in set(names) & users.keys():
                    users[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert users == {"_exp_sum": {"trajectory._sector_sums"},
                     "_sweep": {"trajectory._tiles"},
                     "_sector_blocks": {"trajectory._tiles"}}

"""Every exported name resolves, so a deleted function cannot linger in an export list,
and every name the docs import from ``spinstar`` is exported, so a deletion cannot
leave the README or a demo behind."""

import ast
import importlib
import pkgutil
import re
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

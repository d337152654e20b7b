"""Every exported name resolves, so a deleted function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import spinstar

MODULES = [spinstar] + [
    importlib.import_module(f"spinstar.{m.name}") for m in pkgutil.iter_modules(spinstar.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing

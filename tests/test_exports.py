import importlib
import pkgutil

import pytest

import bundlelab

MODULES = ["bundlelab"] + [
    f"bundlelab.{info.name}" for info in pkgutil.iter_modules(bundlelab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    mod = importlib.import_module(name)
    exported = list(getattr(mod, "__all__", []))
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

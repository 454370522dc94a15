import importlib
import pkgutil

import pytest

import jbstar

MODULES = ["jbstar"] + [f"jbstar.{m.name}" for m in pkgutil.iter_modules(jbstar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

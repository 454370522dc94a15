import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import jbstar

MODULES = ["jbstar"] + [f"jbstar.{m.name}" for m in pkgutil.iter_modules(jbstar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_traced_benchmark_names_resolve():
    # the traced benchmark run exits when a per-layer metric names a
    # function that no module exports
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"].split(".") for m in spec["per_layer"]]
    assert names
    for parts in names:
        if len(parts) != 3:
            continue  # layer totals and trace overhead
        module = importlib.import_module(f"jbstar.{parts[0]}")
        assert hasattr(module, parts[1]), ".".join(parts)
        assert parts[1] in module.__all__, ".".join(parts)
    # algebras.Element.new counts constructions through a patched __post_init__
    assert "__post_init__" in vars(importlib.import_module("jbstar.algebras").Element)

import ast
import importlib
import json
import pkgutil
from collections import Counter
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


def test_no_unused_imports_or_private_functions():
    # no linter is installed: every imported name is used in its module or
    # exported, and every module-level _private function has a caller
    src = Path(jbstar.__file__).resolve().parent
    unused, private, referenced = [], {}, Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        referenced += names
        referenced.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        exported, imported = set(), []
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                private[node.name] = path.name
        for node in ast.walk(tree):  # function-local imports too
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
                referenced.update(alias.name for alias in node.names)
        unused += [f"{path.name}: {name}" for name in imported if not names[name] and name not in exported]
    assert not unused, f"imported but unused: {unused}"
    orphans = [f"{module}: {name}" for name, module in private.items() if not referenced[name]]
    assert not orphans, f"private functions without a caller: {orphans}"


def test_every_parameter_is_read():
    # no linter is installed: each parameter of a module-level function is
    # read in its body (methods and lambdas keep a fixed signature, exempt)
    src = Path(jbstar.__file__).resolve().parent
    unread = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [f"{path.name}: {fn.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters never read: {unread}"


def test_no_trial_closure_rebinds_an_outer_name():
    # every check folds its draws into reports.WorstResidual in a plain
    # loop; no closure carries state out of a trial through nonlocal
    src = Path(jbstar.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Nonlocal)
    ]
    assert not found, f"nonlocal statements: {found}"


def test_every_dataclass_field_is_read():
    # no linter is installed: each annotated field of a @dataclass in
    # src/jbstar is read as an attribute somewhere in src/ or tests/
    src = Path(jbstar.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    trees = {path: ast.parse(path.read_text()) for d in (src, tests) for path in sorted(d.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}: {cls.name}.{stmt.target.id}"
        for path, tree in trees.items()
        if path.parent == src
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    ]
    assert not unread, f"dataclass fields never read: {unread}"


def test_every_model_has_its_closed_forms():
    # the generic forms of these hooks live in the test oracles only
    from jbstar.algebras import _MODELS, AlgebraHandle

    hooks = ("_peirce2", "_eigenpieces", "_center", "rank")
    assert not [f"{cls.__name__}.{h}" for cls in _MODELS.values() for h in hooks if h not in vars(cls)]
    assert not [h for h in (*hooks[1:], "_mult_matrix") if hasattr(AlgebraHandle, h)]


def test_every_gate_goes_through_the_one_gate():
    # the bound-first test _small is called in calculus._gate alone, and no
    # helper states a predicate's defects or threshold a second time
    src = Path(jbstar.__file__).resolve().parent
    callers, defined = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_small" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("calculus.py", "_gate")}
    assert not defined & {"_self_adjoint_defect", "_is_self_adjoint", "_unitary_defects"}

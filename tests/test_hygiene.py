"""Source hygiene of the library modules, read with `ast`: every imported
name is used, in the library and in scripts/, every parameter of a
library function is read, every module-level private function is
referenced somewhere in the package, every module-level search budget is
set by some test, every function the benchmark's tracer wraps exists, and
no module imports `dataclasses`."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rigidlift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(tree):
    """Every bare name and attribute name the module mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"divisor.py", "orientation.py", "graphio.py", "cli.py"}
    assert {p.name for p in SCRIPTS} >= {"torelli_survey.py", "reproduce_examples.py"}


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    assert sorted(imported - _names_read(tree)) == []


def _unread_parameters(tree):
    """Each parameter of a function or lambda that its body, nested
    functions included, never reads, as "function:parameter"."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}:{p}" for p in params if p not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(_tree(path)) == []


def test_no_module_imports_dataclasses():
    """`dataclasses` imports inspect, ast, dis and tokenize, and each
    decoration execs generated methods, which a CLI start-up pays for in
    milliseconds; the records are NamedTuples or plain classes instead."""
    offenders = [
        p.name
        for p in SRC.glob("*.py")
        for node in ast.walk(_tree(p))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert offenders == []


def test_every_private_function_is_referenced():
    trees = {p.name: _tree(p) for p in SRC.glob("*.py")}
    referenced = set().union(*map(_names_read, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    unreferenced = [
        f"{p.name}:{node.name}"
        for p in MODULES
        for node in trees[p.name].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []


def test_every_budget_is_monkeypatched_by_a_test():
    """Each module-level MAX_* constant of the library is the second argument
    of some `setattr` call in tests/, so each budget keeps a test that drives
    its search past a lowered bound."""
    budgets = {
        target.id
        for p in MODULES
        for node in _tree(p).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    patched = {
        node.args[1].value
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setattr"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
    }
    assert budgets >= {"MAX_ARCHES", "MAX_CANDIDATES", "MAX_PATH_STEPS"}
    assert sorted(budgets - patched) == []


def test_every_traced_name_resolves():
    """Each name in `LAYERS` of perfbench/tracer.py (read, not imported)
    resolves to a function of its rigidlift module, "Class.method" through
    the class, so a rename cannot leave the tracer wrapping nothing."""
    tracer = _tree(ROOT / "perfbench" / "tracer.py")
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    assert len(layers) >= 7
    missing = []
    for module, names in layers.items():
        obj = importlib.import_module(f"rigidlift.{module}")
        for name in names:
            target = obj
            for part in name.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module}.{name}")
    assert missing == []

"""The names the package exports, and the ones the benchmark's tracer wraps, resolve."""

import ast
import importlib
import importlib.util
import os
import pkgutil

import pytest

import resnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(resnet.__path__))
SOURCES = sorted(
    os.path.join(resnet.__path__[0], name) for name in os.listdir(resnet.__path__[0]) if name.endswith(".py")
)


def _traced():
    """`TRACED` of bench/tracing.py, loaded from the file without importing bench."""
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


def test_every_package_export_resolves():
    missing = [name for name in resnet.__all__ if not hasattr(resnet, name)]
    assert missing == []


@pytest.mark.parametrize("short", MODULES)
def test_every_module_export_resolves(short):
    module = importlib.import_module(f"resnet.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("short", sorted(TRACED))
def test_every_traced_name_resolves(short):
    # the tracer wraps "Class.method" entries through the class __dict__
    module = importlib.import_module(f"resnet.{short}")
    for attr in TRACED[short]:
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_no_module_imports_inside_a_function():
    # an import in a function body hides a dependency cycle that the module
    # layout should resolve instead
    found = set()  # a set, as a nested function is walked once per enclosing one
    for path in SOURCES:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{os.path.basename(path)}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


def _callers(callee):
    """The top-level functions and methods of the package that call `callee`.

    Each is named "module.function" or "module.Class.method", a call in a
    nested function counting for the function that holds it; a call in a
    class body outside its methods counts for "module.Class", and one at
    module level for "module".  A call matches by the bare name or by the
    attribute it calls.
    """
    found = set()
    for path in SOURCES:
        module = os.path.basename(path)[: -len(".py")]
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        scopes = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                for inner in node.body:
                    is_method = isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                    scopes.append((f"{module}.{node.name}" + (f".{inner.name}" if is_method else ""), inner))
            else:
                scopes.append((module, node))
        for scope, node in scopes:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == callee:
                        found.add(scope)
    return found


def test_one_function_factors_a_grounded_block():
    # one way to solve each system: every LU factor comes from the cached
    # grounded block, and a tree grounded at its base gets none
    assert _callers("splu") == {"laplacian.grounded_laplacian"}


def test_one_function_builds_the_tree_record():
    # the preconditioner and the base-grounded direct solve share one record
    assert _callers("TreeSolve") == {"laplacian._tree_solve"}
    assert _callers("_tree_solve") == {"energy._pcg", "laplacian.grounded_laplacian"}

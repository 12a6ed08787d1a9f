"""The names the package exports, and the ones the benchmark's tracer wraps, resolve."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import resnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(resnet.__path__))


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

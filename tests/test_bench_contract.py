"""The benchmark's tracer names graphbpe functions and methods by string;
each of them must still resolve, or a traced run silently measures nothing."""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = load_tracing()
    for module_name, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_traced_methods_resolve():
    tracing = load_tracing()
    for module_name, class_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        assert cls is not None, f"{module_name}.{class_name}"
        assert callable(getattr(cls, method, None)), f"{module_name}.{class_name}.{method}"

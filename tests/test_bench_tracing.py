"""The traced benchmark wraps toepasym functions by name; each must exist."""
import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    # executed from its source, so no bytecode cache is written beside it
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_names_resolve_in_toepasym():
    tracing = _tracing_module()
    for module_name, funcs in tracing.LAYERS.items():
        module = importlib.import_module(f"toepasym.{module_name}")
        for func_name in funcs:
            assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    for module_name, cls_name, meth, _, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"toepasym.{module_name}"), cls_name)
        # Tracer.install wraps the method found in the class's own namespace
        assert meth in vars(cls), f"{module_name}.{cls_name}.{meth}"

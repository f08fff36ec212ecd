"""The traced benchmark wraps toepasym functions by name; each must exist."""
import importlib
import inspect
import types
from pathlib import Path

import toepasym as tp

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


#: the arguments that each count hook reads by name, in traced runs only
HOOK_ARGUMENTS = {
    ("toeplitz", "log_det_direct"): ("a", "n"),
    ("toeplitz", "trace_f_direct"): ("a", "n"),
    ("toeplitz", "hankel_section"): ("m",),
    ("traces", "trace_constant"): ("contour",),
    ("factor", "factorization_sweep"): ("contour",),
    ("approx", "modulus_of_smoothness"): ("sweep",),
}


def test_count_hooks_read_existing_arguments():
    tracing = _tracing_module()
    for (module_name, func_name), names in HOOK_ARGUMENTS.items():
        assert tracing.LAYERS[module_name][func_name] is not None
        func = getattr(importlib.import_module(f"toepasym.{module_name}"), func_name)
        params = inspect.signature(func).parameters
        for name in names:
            assert name in params, f"{module_name}.{func_name} has no argument {name!r}"
    # the sample hook reads grid_size from the returned grid
    (hook,) = [h for _, _, meth, _, h in tracing.METHODS if meth == "sample"]
    a = tp.scalar_symbol({0: 2.0, 1: 0.5})
    assert hook(tp.LaurentMatrixSeries.sample, (a, 64), {}, a.sample(64)) == {"points": 64}

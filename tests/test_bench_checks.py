"""The block benchmark's contour operations pass the benchmark's own checks.

The spectrum points must lie in the symbol's range, the contour must
clear them and the range, and E_f[square] must match the exact square
trace sum, for the lacunary symbol of each seed and for the fixture.
"""
import sys
import types
from pathlib import Path

import pytest

import toepasym as tp

BENCH = Path(__file__).resolve().parent.parent / "bench"
CONTOUR_OPS = ("estimate_spectrum", "build_contour", "trace_constant[square]")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        for name in ("oracles", "workloads"):
            path = BENCH / f"{name}.py"
            module = types.ModuleType(name)
            # registered while it runs: workloads imports oracles, and
            # dataclasses look their class's module up; executed from its
            # source, so no bytecode cache is written beside it
            mp.setitem(sys.modules, name, module)
            exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
        return module


@pytest.mark.parametrize("seed", range(1, 11))
def test_block_contour_ops_pass_their_checks(workloads, seed, tmp_path):
    inputs, _ = workloads.block_setup(tp, seed, tmp_path)
    tags = ("lacunary", "fixture") if seed == 1 else ("lacunary",)  # the fixture has no seed
    results = {}
    for tag in tags:
        ops = {op.name: op for op in workloads._block_symbol_ops(tp, inputs, tag)}
        for name in CONTOUR_OPS:
            op = ops[f"{tag}.{name}"]
            results[op.name] = op.call(results)
            op.check(results[op.name], results)

"""Benchmark operations that rest on E_f pass the benchmark's own checks.

Block workload: the spectrum points must lie in the symbol's range, the
contour must clear them and the range, and E_f[square] must match the
exact square trace sum, for the lacunary symbol of each seed and for the
fixture.

Scalar workload: widom-trace --f square through the CLI must write the
CSV and the fit the workload checks.  Its fit over n = 8..256 rests on
E_f's 128-node quadrature error at n = 32 and 64, where square on the
bandwidth-32 symbol is an identity; a more accurate E_f leaves too few
points above the fit's floor on seed 2, and the command exits 15.  Those
residuals are rounding-level, so the ten seeds run in one child process
with BLAS on one thread, as the benchmark runs them.
"""
import contextlib
import io
import json
import operator
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import toepasym as tp
from test_cli_golden import _ONE_THREAD

BENCH = Path(__file__).resolve().parent.parent / "bench"
CONTOUR_OPS = ("estimate_spectrum", "build_contour", "trace_constant[square]")
SEEDS = range(1, 11)


def _load_bench(setitem):
    """The benchmark's workloads module, with the oracles it imports."""
    for name in ("oracles", "workloads"):
        path = BENCH / f"{name}.py"
        module = types.ModuleType(name)
        # registered while it runs: workloads imports oracles, and
        # dataclasses look their class's module up; executed from its
        # source, so no bytecode cache is written beside it
        setitem(sys.modules, name, module)
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        return _load_bench(mp.setitem)


@pytest.mark.parametrize("seed", SEEDS)
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


def _widom_square_checks(workdir):
    """Run the scalar workload's cli.widom-trace[square] operation and its
    check for every seed, each in its own directory under workdir, and
    print {seed: failure or null} as JSON (the child process of
    widom_square_failures)."""
    workloads = _load_bench(operator.setitem)
    failures = {}
    for seed in SEEDS:
        seed_dir = Path(workdir) / str(seed)
        seed_dir.mkdir()
        inputs, _ = workloads.trace_cli_setup(tp, seed, str(seed_dir))
        op = {op.name: op for op in workloads.trace_cli_ops(tp, inputs)}["cli.widom-trace[square]"]
        results, err = {}, io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = op.call(results)
            op.check(code, results)
            failures[seed] = None
        except workloads.CheckFailed as exc:
            failures[seed] = f"{exc}; stderr: {err.getvalue().strip()}"
    print(json.dumps(failures))


@pytest.fixture(scope="module")
def widom_square_failures(tmp_path_factory):
    """The failures of _widom_square_checks, run in a child process that
    imports this toepasym with BLAS on one thread, as the benchmark runs:
    the residuals the fit rests on are rounding-level, and move with the
    thread count."""
    path = [str(Path(tp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, __file__, "--widom-square",
                            str(tmp_path_factory.mktemp("widom"))],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return {int(seed): failure for seed, failure in json.loads(child.stdout).items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_widom_trace_square_passes_its_check(widom_square_failures, seed):
    assert widom_square_failures[seed] is None, widom_square_failures[seed]


if __name__ == "__main__" and sys.argv[1:2] == ["--widom-square"]:
    _widom_square_checks(sys.argv[2])

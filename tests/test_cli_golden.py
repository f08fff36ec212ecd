"""Byte-for-byte golden outputs of every CLI subcommand.

Each case runs ``toepasym.cli.main`` in a scratch directory and compares
its exit code and every file it writes with the copies under
``tests/golden/cli``.  The files written by one case feed the later ones
(the symbols, the expansion CSVs), so the cases run in order.  The bytes
depend on the numpy/LAPACK build that wrote them (17 significant
digits), and the last bits of the block LU on the BLAS thread count, so
the cases run in one child process whose BLAS libraries use one thread
(the thread variables of _ONE_THREAD), whatever the caller's environment
says.  After an intended change of the outputs, regenerate the copies
with

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites only the files whose bytes changed and prints, for each,
the largest absolute change of every CSV column or JSON number.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import toepasym
from toepasym.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

Z = ["--zygmund", "0.75", "--levels", "4", "--seed", "1"]
B = ["--two-block", "0.5", "0.2"]

#: (argv, expected exit code, files the command writes)
CASES = [
    (["gen-symbol", *Z, "-o", "z.json"], 0, ["z.json"]),
    (["gen-symbol", *B, "-o", "b.json"], 0, ["b.json"]),
    (["factor", "--symbol", "z.json", "-o", "fz"], 0,
     ["fz_u_minus.json", "fz_u_plus.json", "fz_report.json"]),
    (["factor", "--symbol", "b.json", "--left", "--m", "128", "-o", "fb"], 0,
     ["fb_v_plus.json", "fb_v_minus.json", "fb_report.json"]),
    (["logdet-scan", "--symbol", "z.json", "--n-min", "0", "--n-max", "64",
      "--step", "8", "-o", "ld_z.csv"], 0, ["ld_z.csv"]),
    (["logdet-scan", "--symbol", "b.json", "--n-min", "0", "--n-max", "32",
      "--step", "4", "-o", "ld_b.csv"], 0, ["ld_b.csv"]),
    (["trace-scan", "--symbol", "z.json", "--f", "exp", "--n-min", "4",
      "--n-max", "64", "--step", "12", "-o", "tr_z.csv"], 0, ["tr_z.csv"]),
    (["trace-scan", "--symbol", "b.json", "--f", "square", "--n-min", "4",
      "--n-max", "32", "--step", "7", "-o", "tr_b.csv"], 0, ["tr_b.csv"]),
    *[(["expand", "--symbol", "z.json", "--p", p, "--n-grid", "8:128:geometric",
        "-o", f"ex{p}.csv"], 0, [f"ex{p}.csv"]) for p in ("1", "2", "3")],
    (["expand", "--symbol", "b.json", "--p", "2", "--n-grid", "8:64:geometric",
      "-o", "ex_b.csv"], 0, ["ex_b.csv"]),
    (["widom-trace", "--symbol", "z.json", "--f", "log", "--n-grid",
      "8:128:geometric", "--nodes", "64", "-o", "wt_z.csv",
      "--fit-out", "wt_z.json"], 0, ["wt_z.csv", "wt_z.json"]),
    (["widom-trace", "--symbol", "b.json", "--f", "square", "--n-grid",
      "8:64:geometric", "--nodes", "64", "-o", "wt_b.csv",
      "--fit-out", "wt_b.json"], 0, ["wt_b.csv", "wt_b.json"]),
    (["decay-fit", "--input", "wt_z.csv", "-o", "fit_wt_z.json"], 0,
     ["fit_wt_z.json"]),
    # the p=1 residuals of a band-limited symbol sit at the floor: exit 15
    (["decay-fit", "--input", "ex1.csv", "-o", "fit_ex1.json"], 15, []),
    (["approx-scan", "--symbol", "z.json", "--gamma", "0.75", "--n-grid",
      "4:16:geometric", "-o", "approx.csv"], 0, ["approx.csv"]),
    (["smoothness", "--symbol", "z.json", "--gamma", "0.75", "--n-grid",
      "1:8:geometric", "-o", "smooth.json"], 0, ["smooth.json"]),
]


#: every BLAS thread variable the libraries numpy and scipy may load read
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                             "GOTO_NUM_THREADS"), "1")


def _run_cases(workdir):
    """Run every case in workdir and print [code, stderr] per case as JSON
    (the child process of _run_all)."""
    os.chdir(workdir)
    results = []
    for argv, _, _ in CASES:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        results.append((code, err.getvalue()))
    print(json.dumps(results))


def _run_all(workdir):
    """Run every case in workdir, in a child process that imports this
    toepasym with BLAS on one thread; return (argv, code, stderr, outputs)
    each."""
    path = [str(Path(toepasym.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, __file__, "--cases", str(workdir)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return [(argv, code, stderr, {name: (Path(workdir) / name).read_bytes() for name in files})
            for (argv, _, files), (code, stderr) in zip(CASES, json.loads(child.stdout))]


def test_cli_outputs_match_golden(tmp_path):
    for (argv, code, stderr, outputs), case in zip(_run_all(tmp_path), CASES):
        assert code == case[1], (argv, stderr)
        for name, data in outputs.items():
            assert data == (GOLDEN / name).read_bytes(), (argv, name)


def _numbers(name, data):
    """Label -> list of numbers: CSV columns, or JSON numbers by path."""
    text = data.decode("ascii")
    if name.endswith(".csv"):
        header, *rows = [line.split(",") for line in text.splitlines()]
        return {col: [float(row[i]) for row in rows] for i, col in enumerate(header)}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[path] = [float(node)]
    walk(json.loads(text), "")
    return out


def _changes(name, old, new):
    """Lines naming the largest absolute change per column or number."""
    before, after = _numbers(name, old), _numbers(name, new)
    if before.keys() != after.keys():
        return [f"  labels differ: {sorted(before.keys() ^ after.keys())}"]
    lines = []
    for label, values in after.items():
        if len(values) != len(before[label]):
            lines.append(f"  {label}: {len(before[label])} -> {len(values)} values")
        elif name.endswith(".csv") or values != before[label]:
            change = max((abs(x - y) for x, y in zip(values, before[label])), default=0.0)
            lines.append(f"  {label}: {change:.3g}")
    return lines


def _regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for argv, code, stderr, outputs in _run_all(tmp):
            print(code, " ".join(argv), stderr.strip())
            for name, data in outputs.items():
                path = GOLDEN / name
                old = path.read_bytes() if path.exists() else None
                if data == old:
                    continue
                print(f"rewrote {name}" + ("" if old else " (new)"))
                if old:
                    print("\n".join(_changes(name, old, data)))
                path.write_bytes(data)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cases"]:
        _run_cases(sys.argv[2])
    else:
        sys.exit(_regenerate())

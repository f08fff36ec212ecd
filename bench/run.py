"""Benchmark of toepasym's scans, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a source checkout; it imports toepasym from
``src/`` there and refuses to run without it.  One process runs one
workload as a closed loop with a single caller: each operation waits for
the one before it.  BLAS runs on one thread (see ``THREAD_ENV``); the
CLI's ``--threads`` stays at its default.

A pass runs every operation of the workload once.  A run lasts
``--seconds`` (set-up included) and makes as many passes as fit, at least
``MIN_PASSES``; after each pass, outside the measured time, every output
is checked against an independent route.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json: wall and CPU time of one pass
(the mean over the run's passes), the median set-up time over fresh
processes, peak memory and the share of operations that passed.
``--trace 1`` adds one traced pass after the untraced ones and prints the
per-layer metrics (see ``tracing``).

The last line of standard output is the result object; the line before
it records the machine and the inputs.  Full records, failures and
spans go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: set-up is timed this many times a run: once in this process and in
#: fresh processes spread over the run; the median is reported
SETUP_RUNS = 5
#: a run makes at least this many passes, however long they take
MIN_PASSES = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")
#: BLAS is held to one thread, before numpy is first imported here and in
#: the set-up processes, which inherit the environment.  On a shared
#: two-core machine a two-thread BLAS call stalls whenever another tenant
#: holds one of the cores, and OpenBLAS's second thread spins: the block
#: operations used twice the CPU time of one thread for the same wall
#: time.  Over seeds 1-5 the determinant operations' wall_s spread
#: (interquartile range over median) was 0.12 with two threads and 0.04
#: with one, and one thread was the faster (0.84 s against 0.95 s a pass).
#: The CLI's --threads stays at its default.
FOUND_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_ENV}
os.environ.update(dict.fromkeys(THREAD_ENV, "1"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def set_up(workload, seed, workdir):
    """Import toepasym, make the inputs from the seed, warm up each layer."""
    start = time.perf_counter()
    import toepasym as tp
    origin = Path(tp.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"toepasym imported from {origin}, not from {SRC}")
    from workloads import WORKLOADS, warm_up
    make_inputs, make_ops = WORKLOADS[workload]
    inputs, record = make_inputs(tp, seed, workdir)
    warm_up(tp, workdir)
    return tp, inputs, record, make_ops, time.perf_counter() - start


def setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(ops):
    """Run every operation once; return results, errors and per-op (wall, CPU) seconds."""
    results, errors, times = {}, {}, []
    for op in ops:
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            results[op.name] = op.call(results)
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        times.append((time.perf_counter() - t0, time.process_time() - cpu0))
    return results, errors, times


def check_pass(ops, results, errors):
    """Names and reasons of the operations that raised or missed their check."""
    failures = dict(errors)
    for op in ops:
        if op.name in failures:
            continue
        try:
            op.check(results[op.name], results)
        except Exception as exc:  # a wrong output or a check that cannot run
            failures[op.name] = f"{type(exc).__name__}: {exc}"
    return failures


def machine_record():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "thread_env_found": FOUND_THREAD_ENV,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def source_digest():
    """Digest of the library and of the workload definitions that drive it."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "toepasym").glob("*.py")), BENCH / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_digests(key):
    """CLI output digests of earlier runs of the same source and seed."""
    try:
        with open(OUT / "cli-digests.json", encoding="ascii") as fh:
            return json.load(fh).get(key, {})
    except (OSError, ValueError):
        return {}


def save_digests(key, digests):
    path = OUT / "cli-digests.json"
    try:
        with open(path, encoding="ascii") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    store.setdefault(key, {}).update(digests)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)


def declared_metrics(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def measure(args, workdir):
    start = time.perf_counter()
    deadline = start + args.seconds
    tp, inputs, inputs_record, make_ops, own_setup = set_up(args.workload, args.seed, workdir)
    digest_key = f"{source_digest()}:{args.workload}:{args.seed}"
    inputs["stored_digests"] = load_digests(digest_key)
    ops = make_ops(tp, inputs)

    # Passes run until the deadline; the fresh-process set-ups are spread
    # over the run, so their median samples the same stretch of time.
    setups, setup_due = [own_setup], [start + args.seconds * (i + 1) / SETUP_RUNS
                                      for i in range(SETUP_RUNS - 1)]
    passes, failures, attempted, last = [], [], 0, 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() + last < deadline:
        begun = time.perf_counter()
        results, errors, times = run_pass(ops)
        passes.append(times)
        attempted += len(ops)
        failures += [{"pass": len(passes), "op": k, "why": v}
                     for k, v in check_pass(ops, results, errors).items()]
        del results
        last = time.perf_counter() - begun
        while setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setups.append(setup_in_fresh_process(args))
    setups += [setup_in_fresh_process(args) for _ in setup_due]
    walls = [sum(t[0] for t in p) for p in passes]
    cpus = [sum(t[1] for t in p) for p in passes]

    extra, harness_ok = {}, True
    if args.trace:
        from tracing import Tracer, layer_metrics, misnested
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root():
                results, errors, _ = run_pass(ops)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        failures += [{"pass": "traced", "op": k, "why": v}
                     for k, v in check_pass(ops, results, errors).items()]
        layers, extra = layer_metrics(tracer.spans, statistics.fmean(walls))
        layers["ops_failed_frac"] = len(failures) / attempted
        extra["spans_outside_parent"] = misnested(tracer.spans)
        harness_ok = extra["spans_outside_parent"] == 0
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="ascii") as fh:
            for sid, parent, name, start, end, ok, counts in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "ok": ok,
                                     "run": f"{args.workload}-{args.seed}-traced",
                                     "counts": counts}) + "\n")
        values, kind = layers, "per_layer"
    else:
        values, kind = {
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.fmean(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - len(failures) / attempted,
        }, "end_to_end"
    if inputs.get("digests"):
        save_digests(digest_key, inputs["digests"])

    metrics = {}
    for name, unit in declared_metrics(kind):
        metrics[name] = {"value": values[name], "unit": unit}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "inputs": inputs_record,
              "passes": {"wall_s": walls, "cpu_s": cpus, "setup_s": setups},
              "ops_per_pass": len(ops), "failures": failures,
              "slow_ops_wall_s": {op.name: [p[i][0] for p in passes]
                                  for i, op in enumerate(ops)
                                  if max(p[i][0] for p in passes) >= 0.05},
              **extra}
    result = {"correct": not failures and harness_ok, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return record, result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "toepasym" / "__init__.py").is_file():
        print(f"error: no toepasym sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            *_, setup_s = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="ascii") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

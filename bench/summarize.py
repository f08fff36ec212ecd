"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/summarize.py --seeds 1-10 --out bench/results/NAME.json

For every workload (or those given with --workloads) this runs
``bench/run.py`` once per seed untraced, and once traced with the first
seed, then writes per metric the ten values, their median, quartiles
and spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``).  A performance change quotes the
medians of its parent and its own, measured on the same machine.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        values, runs = {}, []
        for seed in args.seeds:
            record, result = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "passes": record["passes"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {name: summarize(v) for name, v in values.items()}
        record, traced = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
        summary["machine"] = record["machine"]
        summary["workloads"][workload] = {
            "inputs": record["inputs"], "runs": runs, "end_to_end": end_to_end,
            "traced_seed": args.seeds[0], "traced_correct": traced["correct"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
        for name, s in end_to_end.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread above bound/3)"
            print(f"{workload:12s} {name:14s} median {s['median']:10.4g} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure a baseline: every workload over several seeds, untraced, plus
one traced run per workload, summarised as medians and quartile spreads.

    python3 bench/baseline.py --seeds 101-110 --out bench/baseline.json

Run from the repository root.  The spread of a metric is the distance
between the first and third quartile of its per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median, the
figure BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the human-readable lines: "name value unit"
    report = {}
    for line in lines[:-1]:
        parts = line.split(" ", 2)
        if len(parts) == 3 and not line.startswith("#"):
            try:
                report[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result, report


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": args.seeds,
           "environment": {"python": platform.python_version(),
                           "gc_thresholds": list(gc.get_threshold()), "cpus": os.cpu_count()},
           "workloads": {}}
    for workload in args.workloads.split(","):
        metrics, extras, attempted, failed = {}, {}, 0, 0
        for seed in args.seeds:
            result, report = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, value in report.items():
                if name not in result["metrics"]:
                    extras.setdefault(name, []).append(value)
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {k: summarise(v) for k, v in metrics.items()},
                 "reported": {k: summarise(v) for k, v in extras.items()}}
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] else "  OVER BOUND"
            raw = entry["reported"].get(name + ".unscaled")
            unscaled = f"; unscaled spread {raw['spread']:.3f}" if raw else ""
            print(f"{workload:8s} {name:16s} median {s['median']:.5g} spread {s['spread']:.3f}"
                  f" (bound {bounds[name]}){unscaled}{flag}", flush=True)
        if args.trace_seed is not None:
            result, _ = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  **{k: m["value"] for k, m in result["metrics"].items()}}
            entry["failed"] += result["failed"]
            failed = entry["failed"]
        out["workloads"][workload] = entry
        print(f"{workload:8s} attempted {attempted} failed {failed}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

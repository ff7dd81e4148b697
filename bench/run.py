#!/usr/bin/env python3
"""proofkit benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the repository root.  The process builds the workload's queries
from the seed (set-up, not measured), starts a fresh worker process that
answers them for ``--seconds`` of measured time in a closed loop (one
client, one thread, next query after the previous answer), checks every
answer against the benchmark's own oracle, and prints every metric by name
and unit.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (untraced run).
``--trace 1`` reports the per-layer metrics: the same queries run again
with every cross-module binding wrapped (see tracing.py), followed by an
untraced run of exactly as many queries to price the tracing itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import gc
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("decide", "interp", "uniform", "wide")

# queries in one pass over the pool (a sweep with cold caches; the worker
# starts another pass when time remains)
JOB_SIZE = {"decide": 20000, "interp": 8000, "uniform": 1268, "wide": 10}
# stop the measured loop only at whole cycles / rounds
GRANULE = {"decide": 10, "interp": 1, "uniform": 1, "wide": 9}
# peak RSS is read after this many queries, so a faster program that
# answers more queries in the same time is not charged for the larger
# caches that follow
RSS_AFTER = {"decide": 4000, "interp": 3000, "uniform": 250, "wide": 9}

# the end-to-end metrics of an untraced run, by name and unit
END_TO_END_UNITS = {"setup_s": "s", "throughput_qps": "queries/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
# per-layer metrics measured by run.py around the traced worker (the rest
# come from Tracer.layer_metrics)
RUN_LAYER_METRICS = ("prover.cache_entries", "core.formulas_interned",
                     "bench.tracing_overhead_ratio", "runtime.gc_gen2_collections",
                     "runtime.gc_pause_s", "cli.decide_cold_s")

SETUP_SPAWNS = 21
CLI_SPAWNS = 5
WORKER_TIMEOUT = 150


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env.pop("PYTHONSTARTUP", None)
    return env


def build_job(workload, seed):
    import inputs
    if workload == "decide":
        job = inputs.decide_job(seed, JOB_SIZE["decide"] // GRANULE["decide"])
    elif workload == "interp":
        job = inputs.interp_job(seed, JOB_SIZE["interp"])
    elif workload == "uniform":
        job = inputs.uniform_job(seed, JOB_SIZE["uniform"])
    else:
        job = inputs.wide_job(seed, JOB_SIZE["wide"])
    job.update(workload=workload, granule=GRANULE[workload], rss_after=RSS_AFTER[workload])
    return job


def run_worker(job):
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=child_env(), cwd=str(ROOT), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn(argv):
    return subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT))


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure_setup(job):
    """Fresh interpreter to first query ready, excluding input generation:
    the median over ``SETUP_SPAWNS`` sequential probes, each timed until it
    prints ``ready``.  Each probe then times reference slices itself, and
    its set-up time is scaled by their median.  The probe's own slices
    follow the speed its set-up ran at far more closely than slices timed
    in this process: over eight sets of 21 probes, the quartile spread of
    the scaled median was 0.035 with them and 0.15 with this process's.
    Returns the scaled and unscaled medians."""
    probe = json.dumps({"setup_only": True, "calculi": job["calculi"]})
    times, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        proc = spawn([sys.executable, str(BENCH / "worker.py")])
        try:
            proc.stdin.write(probe)
            proc.stdin.close()
            line = proc.stdout.readline().strip()
            dt = perf_counter() - t0
            if line != "ready":
                fail(f"set-up probe printed {line!r}: {proc.stderr.read()[-2000:]}")
            slices = json.loads(proc.stdout.readline())
            proc.wait(timeout=60)
        finally:
            stop(proc)
        times.append(dt)
        scaled.append(dt * speed.REFERENCE_S / statistics.median(slices))
    return statistics.median(scaled), statistics.median(times)


def measure_cli_cold(job):
    """Cold ``python -m proofkit.cli decide --logic ipc`` on a seeded
    ``~~phi``; returns the median time and whether the printed verdict
    matches the oracle."""
    import oracle
    import random
    from inputs import ATOMS4, random_formula
    rng = random.Random(job["seed"])
    phi = random_formula(rng, 10, ATOMS4)
    text = oracle.render(oracle.double_negation(phi))
    argv = [sys.executable, "-m", "proofkit.cli", "--format", "structured",
            "decide", "--logic", "ipc", text]
    times, slices, out = [], [speed.slice_time()], ""
    for _ in range(CLI_SPAWNS):
        t0 = perf_counter()
        proc = spawn(argv)
        try:
            out, _ = proc.communicate("", timeout=60)
            times.append(perf_counter() - t0)
        finally:
            stop(proc)
        slices.append(speed.slice_time())
    scaled = statistics.median(speed.normalise(times, range(CLI_SPAWNS), slices))
    want = "provable: " + ("true" if oracle.tautology(phi) else "false")
    return scaled, want in out.splitlines()


# ---------------------------------------------------------------------------
# statistics

# the tail percentile of each workload, in per mille.  It is fixed rather
# than chosen from the run's length, which follows the machine's speed.  At
# baseline length at least 30 samples lie beyond it: about 275 on decide,
# 80 on interp, 45 on uniform.  p99.9 is left out on decide: about 30
# samples lie beyond it, and a decide run makes about 20 generation-2
# collections, so it would measure little but GC pauses.  On uniform p95
# (about 22 beyond) spread 0.10 over 15 seeds where p90 spread 0.05
TAIL_PERMILLE = {"decide": 990, "interp": 990, "uniform": 900}


def percentile(latencies, pm):
    """The nearest-rank percentile ``pm`` (per mille) and the number of
    samples ranked beyond it."""
    xs = sorted(latencies)
    k = max(1, -(-pm * len(xs) // 1000))
    return xs[k - 1], len(xs) - k


def round_max_tail(latencies, granule):
    """Wide has too few queries for a percentile: its tail is the median
    over rounds (granules) of each round's slowest query."""
    rounds = [latencies[i:i + granule] for i in range(0, len(latencies) - granule + 1, granule)]
    return statistics.median(max(r) for r in rounds or [latencies])


def tail(workload, latencies):
    """(percentile, value, samples beyond) of the workload's tail latency."""
    if workload == "wide":
        return 100.0, round_max_tail(latencies, GRANULE["wide"]), 0
    pm = TAIL_PERMILLE[workload]
    value, beyond = percentile(latencies, pm)
    return pm / 10, value, beyond


def end_to_end(workload, res, setup_s, raw_setup_s):
    """End-to-end metrics (scaled to the reference speed) and the figures
    printed beside them, each as (value, unit)."""
    lat = res["latencies"]
    p, tail_value, beyond = tail(workload, lat)
    raw = res["raw_latencies"]
    values = {
        "setup_s": setup_s,
        "throughput_qps": res["attempted"] / res["busy_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    extra = {
        "bench.speed_factor": (res["speed_factor"], "ratio"),
        "setup_s.unscaled": (raw_setup_s, "s"),
        "throughput_qps.unscaled": (res["attempted"] / res["raw_busy_s"], "queries/s"),
        "latency_p50_ms.unscaled": (statistics.median(raw) * 1e3, "ms"),
        "latency_tail_ms.unscaled": (tail(workload, raw)[1] * 1e3, "ms"),
        "failure_rate": (res["failed"] / res["attempted"], "ratio"),
        "latency_tail_percentile": (p, "percentile"),
        "latency_tail_samples_beyond": (beyond, "count"),
        "peak_rss_at_query": (res["rss_at_query"], "count"),
    }
    if res["weights"]:
        extra["output_weight_mean"] = (statistics.fmean(res["weights"]), "formula weight")
    by_class = {}
    for c, t in zip(res["classes"], lat):
        by_class.setdefault(c, []).append(t)
    for c, ts in sorted(by_class.items()):
        extra[f"latency_p50_ms[{c}]"] = (statistics.median(ts) * 1e3, "ms")
    if workload == "wide":
        n200 = [t for c, t in zip(res["classes"], lat) if c.endswith("/200")]
        extra["latency_n200_ms"] = (statistics.median(n200) * 1e3, "ms")
        exps = []
        for fam in ("conj", "absent", "chain"):
            t100 = statistics.median(by_class[f"{fam}/100"])
            t200 = statistics.median(by_class[f"{fam}/200"])
            exps.append(math.log2(t200 / t100))
        extra["scaling_exponent"] = (statistics.median(exps), "1")
    return metrics, extra


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "gc_thresholds": list(gc.get_threshold()), "cpus": os.cpu_count()}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "proofkit" / "__init__.py").is_file():
        fail(f"no proofkit sources under {SRC}; run from a proofkit checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]

    t0 = perf_counter()
    job = build_job(args.workload, args.seed)
    job.update(seconds=args.seconds, seed=args.seed)
    print(f"# {args.workload} seed={args.seed}: {len(job['queries'])} queries prepared "
          f"in {perf_counter() - t0:.2f} s; environment {json.dumps(environment())}")

    if args.trace:
        traced = run_worker(dict(job, trace=True,
                                 span_file=str(BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl")))
        # the untraced twin prices the tracing and counts the collector's
        # work without the tracer's span lists in the heap
        plain = run_worker(dict(job, max_queries=traced["attempted"], gc_watch=True))
        runs = (traced, plain, {"attempted": 1, "failed": 0, "failures": []})
        layers = traced["layers"]
        layers["prover.cache_entries"] = traced["cache_entries"]
        layers["core.formulas_interned"] = traced["formulas_interned"]
        layers["bench.tracing_overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
        layers["runtime.gc_gen2_collections"] = plain["gc_gen2_collections"]
        layers["runtime.gc_pause_s"] = plain["gc_pause_s"]
        cli_s, cli_ok = measure_cli_cold(job)
        layers["cli.decide_cold_s"] = cli_s
        units = per_layer_units()
        metrics = {k: (v, units[k]) for k, v in sorted(layers.items())}
        extra = {"spans_written": (traced.get("spans_written", 0), "count")}
        correct_extra = cli_ok
    else:
        setup_s, raw_setup_s = measure_setup(job)
        res = run_worker(job)
        runs = (res,)
        metrics, extra = end_to_end(args.workload, res, setup_s, raw_setup_s)
        correct_extra = True

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + (0 if correct_extra else 1)
    for r in runs:
        for problems in r["failures"]:
            print("# FAILED: " + " | ".join(p.strip().replace("\n", " / ") for p in problems))
    if not correct_extra:
        print("# FAILED: the cold CLI verdict disagrees with the oracle")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

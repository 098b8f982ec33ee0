#!/usr/bin/env python3
"""Builds the lrpbench binary from the checkout's sources and runs one workload.

    python3 lrpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
engine and the lrpbench binary (CMake, RelWithDebInfo, no LRPDB_NO_*
switch) under $CARGO_TARGET_DIR, default .bench_build; later runs only
check the build is current.

A run is SHARDS processes in a row, each doing 1/SHARDS of the work on
inputs of its own, drawn from seed * SHARDS + k for process k. Op costs
drift with the process's heap history, and the tail of a percentile with
the few heaviest inputs, so samples pooled from several processes give
steadier figures than one process doing all the work. The last stdout
line is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics (--trace 0) computed over the pooled samples, at
the nominal host speed (README.md, Clocks), or the per-layer metrics
(--trace 1) as medians over the processes. Any failure -- a build error,
a crash, a missing or malformed result -- exits non-zero without printing
a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

SHARDS = 3
RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("recurring-bulk", "transit-closure", "live-maintenance")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the binary; returns its path or None."""
    cmake_dir = os.path.join(build_root, "lrpbench")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build tree.
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "lrpbench",
                      "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    binary = os.path.join(cmake_dir, "lrpbench")
    return binary if os.access(binary, os.X_OK) else None


def quantile(values, q):
    """Linear interpolation between closest ranks; None when empty."""
    if not values:
        return None
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(shards, samples="samples"):
    """The end-to-end metrics over the pooled samples of every shard: times
    at the nominal host speed, or raw with samples="raw_samples"."""
    pool = {k: [x for s in shards for x in s[samples][k]]
            for k in ("setup_s", "solve_s", "query_us", "add_ms",
                      "retract_ms", "restart_s")}
    scalar = {k: [s["scalars"][k] for s in shards]
              for k in shards[0]["scalars"]}
    scalar["live_s"] = [s[samples]["live_s"] for s in shards]
    attempted = sum(s["attempted"] for s in shards)
    failed = sum(s["failed"] for s in shards)
    live_s = sum(scalar["live_s"])
    table = [
        ("setup_s", quantile(pool["setup_s"], 0.5), "s"),
        ("solve_s", quantile(pool["solve_s"], 0.5), "s"),
        ("query_us_p50", quantile(pool["query_us"], 0.5), "us"),
        ("query_us_p99", quantile(pool["query_us"], 0.99), "us"),
        ("add_ms_p50", quantile(pool["add_ms"], 0.5), "ms"),
        ("add_ms_p90", quantile(pool["add_ms"], 0.9), "ms"),
        ("retract_ms_p50", quantile(pool["retract_ms"], 0.5), "ms"),
        ("retract_ms_p90", quantile(pool["retract_ms"], 0.9), "ms"),
        ("ops_per_s", sum(scalar["live_ops"]) / live_s if live_s else None,
         "1/s"),
        ("restart_s", quantile(pool["restart_s"], 0.5), "s"),
        ("peak_rss_mb", statistics.median(scalar["peak_rss_mb"]), "MB"),
        ("closed_form_tuples",
         statistics.median(scalar["closed_form_tuples"]), "count"),
        ("disk_bytes_per_fact",
         statistics.median(scalar["disk_bytes_per_fact"]), "B"),
        ("ok_rate", (attempted - failed) / attempted if attempted else None,
         "ratio"),
    ]
    return {name: {"value": value, "unit": unit}
            for name, value, unit in table}


def per_layer(shards):
    """Each per-layer metric as the median over the shards."""
    units = shards[0]["metrics"]
    return {name: {"value": statistics.median(
                       s["metrics"][name]["value"] for s in shards),
                   "unit": units[name]["unit"]}
            for name in units}


def run_shard(cmd, deadline):
    """Runs one shard; returns its parsed result or None."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"lrpbench exceeded the {RUN_TIMEOUT_S}s run budget; killed")
        return None
    finally:
        # Also on SIGTERM (see main): never leave the child running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        log(f"lrpbench exited with code {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not {
            "correct", "attempted", "failed", "samples", "raw_samples",
            "scalars", "metrics"} <= set(result):
        log("lrpbench printed no valid result line")
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 1

    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    shards = []
    for k in range(SHARDS):
        workdir = os.path.join(build_root, f"work-{os.getpid()}-{k}")
        # Each process draws its own inputs, so a run's percentiles span
        # SHARDS times as many distinct facts, batches and queries.
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed * SHARDS + k),
               "--seconds", str(args.seconds / SHARDS), "--trace", args.trace,
               "--workdir", workdir]
        try:
            result = run_shard(cmd, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result is None:
            return 1
        shards.append(result)

    if args.trace == "1":
        metrics = per_layer(shards)
    else:
        metrics = end_to_end(shards)
        log("samples per process: " + ", ".join(
            f"{k}={len(v)}" for k, v in shards[0]["samples"].items()
            if isinstance(v, list)) + "; host_ref_ms " + ", ".join(
            f"{s['scalars']['host_ref_ms']:.4g}" for s in shards))
        log("unadjusted: " + json.dumps(
            {k: m["value"]
             for k, m in end_to_end(shards, "raw_samples").items()}))
    correct = all(s["correct"] for s in shards)
    for name, m in metrics.items():
        if m["value"] is None:  # no sample: every call of that kind failed
            correct = False
            m["value"] = 0.0
        log(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    log(f"{args.workload} seed {args.seed}: "
        f"{time.monotonic() - started:.1f}s, correct={correct}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in shards),
                      "failed": sum(s["failed"] for s in shards),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

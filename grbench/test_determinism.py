#!/usr/bin/env python3
"""Determinism self-check of the grbench benchmark.

    python3 grbench/test_determinism.py [--workload NAME] [--seed N]

For each workload, runs the benchmark at 1 host thread and at `nproc`
threads, untraced and traced, and asserts that every simulated-clock
metric and every vgpu / shard_cache / transfer / frontier / sched count
is bit-identical between the two thread counts. Inside each run the
benchmark itself compares its (at least three) passes bit for bit and
reports "correct": false on any difference, so repeated runs are checked
too. Exits non-zero on the first difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["analytics-oom", "traversal", "serving"]

# Host-clock metrics; everything else grbench prints is simulated or a
# count and must not depend on the thread count.
WALL = {"wall_s", "setup_s", "peak_rss_mb", "trace.overhead_s"}
WALL_LAYERS = ("graph.", "partition.", "reference.")
WALL_NAMES = {"engine.plan_s", "engine.begin_s", "engine.step_s",
              "engine.step_max_ms", "engine.finish_s", "engine.self_s",
              "sched.submit_s", "sched.drain_s", "sched.self_s"}


def simulated(name):
    return (name not in WALL and name not in WALL_NAMES and
            not name.startswith(WALL_LAYERS))


def run(workload, seed, threads, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0",
               "--threads", str(threads), "--trace", str(trace)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("FAIL %s threads=%d trace=%d: %s" %
                 (workload, threads, trace, out))
    return {k: v["value"] for k, v in result["metrics"].items()
            if simulated(k)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    many = os.cpu_count() or 1
    for workload in [args.workload] if args.workload else WORKLOADS:
        for trace in (0, 1):
            one = run(workload, args.seed, 1, trace)
            other = run(workload, args.seed, many, trace)
            diff = {k: (one[k], other.get(k)) for k in one
                    if one[k] != other.get(k)}
            if diff or one.keys() != other.keys():
                sys.exit("FAIL %s trace=%d: threads 1 vs %d differ: %s" %
                         (workload, trace, many, diff))
            print("ok %s trace=%d: %d simulated metrics identical at "
                  "threads 1 and %d" % (workload, trace, len(one), many))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the grbench benchmark.

    python3 grbench/run.py --workload analytics-oom|traversal|serving \
        --seed N --seconds T --trace 0|1 [--threads N]

Run from the root of a checkout. grbench and the library it links are
built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use. Build output goes to standard error; the
benchmark's report goes to standard output and ends with one JSON line.
A traced run also writes its spans to <build dir>/spans/.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds grbench; returns the binary's path."""
    cmake_dir = os.path.join(build_dir, "grbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "grbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("grbench: build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "grbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analytics-oom", "traversal", "serving"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.threads is not None:
        command += ["--threads", str(args.threads)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.ndjson" % (args.workload, args.seed))]

    child = subprocess.Popen(command, cwd=ROOT)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()

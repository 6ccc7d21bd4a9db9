#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally); snapshots and span dumps go to
.bench_build/perfbench-run.  The last line of standard output is the JSON
result of the run.  Build failures exit non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
WORKLOADS = ("steady-10k", "steady-1m", "churn-100k", "fig12-sim")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(done.returncode or 1)
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    WORK.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([str(binary), str(WORK)]).returncode

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(WORK)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

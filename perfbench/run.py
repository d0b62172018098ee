#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and compiles the
perfbench package (perfbench/CMakeLists.txt, which compiles the library
from src/) into .bench_build/; later runs only rebuild what changed.
Build output goes to .bench_build/build.log, never to stdout: the last
stdout line is the benchmark's JSON result. With --trace 1 the host-time
spans of the last traced run of a workload are written to
.bench_build/traces/<workload>.csv. See perfbench/NOTES.md.
"""

import argparse
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-ladder", "nona-suite", "pipeline-faults")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not glob.glob(os.path.join(ROOT, "src", "**", "*.cpp"), recursive=True):
        fail("no library sources under src/: run from a full checkout")
    tree = os.path.join(BUILD, "perfbench")
    os.makedirs(tree, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", tree, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed, see .bench_build/build.log")
    return os.path.join(tree, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, args.workload + ".csv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

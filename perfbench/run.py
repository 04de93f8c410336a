#!/usr/bin/env python3
"""Builds and runs the LBC benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/ — the benchmark and
the library layers it compiles from src/ — with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload. Build output goes to stderr. The last line of standard output is
the benchmark's JSON result, and the exit code is the benchmark's. A traced
run (--trace 1) also writes its spans to <build dir>/traces/<workload>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(source_dir, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0].split("=", 1)[1].strip()) != source_dir:
            shutil.rmtree(build_dir)  # configured for another checkout
    steps = [
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "lbc_perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.realpath(__file__))
    repo = os.path.dirname(source_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(repo, target, "perfbench")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "lbc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(traces, args.workload + ".tsv")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

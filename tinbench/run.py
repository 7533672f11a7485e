#!/usr/bin/env python3
"""Builds tinbench from source and runs one workload.

    python3 tinbench/run.py --workload bitcoin --seed 1 \
        --seconds 24 --trace 0
    python3 tinbench/run.py --self-test

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/tinbench (default .bench_build/tinbench), scratch
files to .bench_run/ and span files to .bench_out/. Build output goes
to standard error, so the last line of standard output is the run's
JSON result. The exit code is the benchmark's: non-zero when the build
fails, an operation is refused or an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "tinbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tinbench",
                  "-j", jobs])
    for step in steps:
        code = subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode
        if code != 0:
            sys.exit(f"tinbench: build step failed ({code}): {' '.join(step)}")
    return os.path.join(build_dir, "tinbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["bitcoin", "prosper"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        command = [binary, "--self-test"]
    else:
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"tinbench: no result within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

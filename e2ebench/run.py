#!/usr/bin/env python3
"""Builds and runs the end-to-end BlameIt benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload fault_storm --seed 1 --seconds 50 --trace 0
    python3 e2ebench/run.py --selftest      # tests of the output checks

The first run configures and compiles the library from ../src plus the
benchmark into .bench_build/e2ebench (Release). The benchmark's own result
line is the last line of standard output; build logs go to standard error.
The exit code is the benchmark's (0 = every output check passed).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("ingest_day", "fault_storm")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.h")):
        sys.exit("e2ebench: no BlameIt sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the output checks")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build("e2ebench_checks_test" if args.selftest else "e2ebench")
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("e2ebench: build failed: %s" % e)
    if args.selftest:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    os.makedirs(WORK, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", WORK]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

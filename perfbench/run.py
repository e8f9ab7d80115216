#!/usr/bin/env python3
"""Builds and runs the serving benchmark; see perfbench/README.md.

  python3 perfbench/run.py --workload read-1shard --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The benchmark is compiled from the repository's sources into .bench_build
(an incremental build after the first run). The last line of standard
output is the run's result object; exit code 0 means every answer was
correct, 1 a wrong answer, 2 a failed build or run.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD_DIR, target)


def run(cmd, work_dir):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    work_dir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())

    if args.selftest:
        binary = build("perfbench_selftest")
        return selftest(binary, work_dir)
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    return run([binary, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--work-dir", work_dir],
               work_dir)


def selftest(binary, work_dir):
    os.makedirs(work_dir, exist_ok=True)
    try:
        return subprocess.run([binary], cwd=work_dir).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

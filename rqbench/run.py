#!/usr/bin/env python3
"""End-to-end rqserved benchmark: build, then run one workload.

    python3 rqbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds librq, rqserved and the load generator
(rqbench/CMakeLists.txt, the repository's default RelWithDebInfo
configuration) into .bench_build/rqbench, then runs the load generator,
which spawns rqserved, drives and checks the workload, and prints one JSON
result object as the last line of standard output.

    python3 rqbench/run.py --selftest     # the references' own tests
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "rqbench")
WORK_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("contain-cold", "eval-scan", "mutate-mixed")


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "rqbench", "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=780)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    loadgen = os.path.join(BUILD_DIR, "rqload")
    if args.selftest:
        return subprocess.run([loadgen, "--selftest"]).returncode

    work_dir = os.path.join(WORK_DIR, args.workload)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", BUILD_DIR, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: load generator timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    # Everything but the result line goes to stderr, so the result object
    # is the last line of standard output.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"run.py: load generator failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

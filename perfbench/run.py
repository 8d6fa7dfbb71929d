#!/usr/bin/env python3
"""Build and run the end-to-end replay benchmark.

    python3 perfbench/run.py --workload stream_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The benchmark compiles the simulator sources in src/ together with the
driver in this directory (a CMake project of its own) into
.bench_build/perfbench at the root of the checkout, then runs one workload.
The last line of stdout is the result as one JSON object; build output goes
to stderr. --smoke runs every workload at tiny sizes instead and checks the
traced driver, the counter identities, the audit and the pinned digests.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("stream_churn", "control_loop", "paper_sweep")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no simulator sources (src/) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    work_dir = os.path.join(BUILD, "work")
    if args.smoke:
        cmd = [binary, "smoke", "--work-dir", work_dir]
    else:
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

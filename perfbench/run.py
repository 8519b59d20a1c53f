#!/usr/bin/env python3
"""Build and run the MPI-xCCL end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
the benchmark (and the library sources under src/) into .bench_build/perfbench;
later runs rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's one-line JSON result. The exit code is the
benchmark's: 0 only when every checked result was right.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mpixccl.hpp")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["small-mix", "large-hier", "train-resnet50"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short phases and one set-up (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one result; the run must then fail")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", BUILD]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

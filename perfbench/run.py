#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload bfs-powerlaw --seed 0 \
        --seconds 35 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build) under the
current directory; traced runs write their span and per-layer artifacts
to <build>/perfbench-out. The last line of standard output is the JSON
result the driver binary prints. Exits non-zero without a result when the
scq sources next to this directory are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bfs-powerlaw", "tasks-grid", "cluster-bfs")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no scq sources next to %s" % HERE)
    cmake_dir = os.path.join(target, "perfbench-cmake")
    quiet = {"stdout": subprocess.DEVNULL, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", "4"], check=True, **quiet)
    return os.path.join(cmake_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-first-call", action="store_true",
                    help="flip one output of the first driver call (tests "
                         "that the validator fails)")
    args = ap.parse_args()

    target = build_dir()
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(target, "perfbench-out")]
    if args.corrupt_first_call:
        cmd.append("--corrupt-first-call")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

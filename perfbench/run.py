#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim_hybrid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-expected

Run from the repository root. The first call configures and builds
perfbench (and the simulator libraries it links) in .bench_build/;
later calls only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
TABLE = os.path.join(HERE, "expected_stats.txt")
WORKLOADS = ("sim_hybrid", "serve_cold", "serve_hot")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the perfbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Run the benchmark binary, relaying its stdout; returns its code."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    sys.stdout.write(out)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected_stats.txt from this build")
    args = ap.parse_args()
    if not args.write_expected and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        return 1
    if args.write_expected:
        return run([BINARY, "--write-expected", TABLE])
    return run([BINARY, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--expected", TABLE])


if __name__ == "__main__":
    sys.exit(main())

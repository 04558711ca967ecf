#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

    python3 radbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 radbench/run.py --selftest

The first form configures and builds radbench/ (which compiles the
library sources in src/) under .bench_build/, then runs one workload and
passes its output through; the last line of standard output is the
result object. The build log goes to standard error. The second form
also builds and runs the benchmark's own arithmetic tests, then a
toy-size smoke run of every workload, plain and traced, with every
correctness check on.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "radbench")
WORK = os.path.join(ROOT, ".bench_build", "radbench-work")
WORKLOADS = ["paper_la", "service_mixed", "store_rw", "graph_sparse"]
RUN_TIMEOUT_S = 175


def build(targets):
    """Configures once, then builds `targets`; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "radbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except OSError as e:
            print(f"radbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"radbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [os.path.join(BUILD, "radbench"), "--work-dir", WORK,
           "--commit", commit()] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"radbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def selftest():
    if not build(["radbench", "radbench_selftest"]):
        return 1
    tests = subprocess.run([os.path.join(BUILD, "radbench_selftest")], cwd=ROOT)
    if tests.returncode != 0:
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run(["--workload", workload, "--seed", "7", "--seconds",
                             "1", "--trace", trace, "--smoke"], capture=True)
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
            ok = result.get("correct") is True and result.get("failed") == 0
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"({result.get('attempted', 0)} operations)")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()
    if opts.workload is None:
        parser.error("--workload is required")
    if not build(["radbench"]):
        return 1
    code, _ = run(["--workload", opts.workload, "--seed", str(opts.seed),
                   "--seconds", str(opts.seconds), "--trace", opts.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())

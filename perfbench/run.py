#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bso13_lcmp --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the simulator library and the
benchmark program (Release) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Per-run records (machine, seeds,
digests, checks, spans) are written under .bench_build/perfbench-out.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

_child = None


def _kill_child():
    """Kills the running child's whole process group and reaps the child."""
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _child.wait()


def _terminate(signum, frame):
    _kill_child()
    sys.exit(128 + signum)


def _call(cmd, timeout, stdout):
    """Runs cmd in its own process group to completion; kills it on timeout."""
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, cwd=ROOT, start_new_session=True)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_child()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    finally:
        _child = None


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = _call(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return rc
    return _call(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets,
                 BUILD_TIMEOUT_S, sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's self-tests instead of a workload")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required (or --selftest)")

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    if args.selftest:
        rc = build(["perfbench_selftest"])
        if rc != 0:
            return rc
        return _call([os.path.join(BUILD_DIR, "perfbench_selftest"),
                      os.path.join(ROOT, "BENCHMARK.json")], RUN_TIMEOUT_S, None)

    rc = build(["perfbench"])
    if rc != 0:
        return rc
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    return _call([os.path.join(BUILD_DIR, "perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--out-dir", OUT_DIR], RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())

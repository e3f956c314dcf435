#!/usr/bin/env python3
"""Builds perfbench against the program's src/ and runs one workload.

    python3 perfbench/run.py --workload hot-rmw --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the repository root (CMake,
the program's default RelWithDebInfo build type); build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. A failed build exits non-zero without printing a result. Traced runs
(--trace 1) also write a Chrome trace-event file to .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["hot-rmw", "wide-read", "fault-heal"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="short run of every workload plus the chaos check")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace and not args.selftest:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # Replace this process, so a signal to it reaches the benchmark itself.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, cmd)


if __name__ == "__main__":
    sys.exit(main())

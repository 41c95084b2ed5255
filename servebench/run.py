#!/usr/bin/env python3
"""Served-path benchmark of the SDSS archive reproduction.

Usage (from anywhere; paths are resolved against the repository root):

  python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 servebench/run.py --quick

The first form builds the driver on first use (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and leaves the
driver's result line -- one JSON object -- as the last line of standard
output. Build output and the run's accounting go to standard error.

--quick is the benchmark's own smoke test: every workload runs briefly
on a smaller sky with tracing and every check on, the checker must
reject deliberately corrupted answers, and each trace file must pass
tools/check_trace.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cone_search", "full_sweep", "mining_session")


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "servebench")


def quick(binary):
    failures = 0
    for workload in WORKLOADS:
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", "7", "--seconds", "2",
             "--trace", "1", "--objects", "200000", "--selftest"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        trace = os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed7.json")
        checked = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"), trace],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        ok = (out.returncode == 0 and result.get("correct") is True
              and result.get("failed") == 0 and checked.returncode == 0)
        failures += not ok
        print(f"quick {workload}: {'ok' if ok else 'FAILED'} "
              f"(exit {out.returncode}, attempted {result.get('attempted')}, "
              f"failed {result.get('failed')}; {checked.stdout.strip()})")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required (or --quick)")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 3
    if args.quick:
        return quick(binary)
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

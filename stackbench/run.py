#!/usr/bin/env python3
"""Zero-cost stack benchmark runner (see README.md in this directory).

    python3 stackbench/run.py --workload pt2pt|stencil|startup \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the sessmpi libraries and the
benchmark binary from source into .bench_build/stackbench (a full build the
first time, an up-to-date check afterwards), runs one workload, relays its
ledger, and prints the result object as the last line of standard output.
Exits non-zero when the build fails, a check or operation failed, or the
result lacks a metric that BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "stackbench")
BINARY = os.path.join(BUILD_DIR, "stackbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("pt2pt", "stencil", "startup")


def build():
    """Configure once, then let the build tool bring the binary up to date.
    Build output goes to stderr so stdout stays the benchmark's."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-pipe"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        expected = expected_metrics(args.trace == 1)
        build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"stackbench: set-up failed: {e}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"stackbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3

    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        print("stackbench: no result line", file=sys.stderr)
        return 4

    missing = expected - set(result.get("metrics", {}))
    extra = set(result.get("metrics", {})) - expected
    if missing or extra:
        print(f"stackbench: metric set mismatch: missing {sorted(missing)}, "
              f"unexpected {sorted(extra)}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    ok = (proc.returncode == 0 and result.get("correct") is True
          and result.get("failed") == 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

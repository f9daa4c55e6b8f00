#!/usr/bin/env python3
"""Build zcbench from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 zcbench/run.py --workload kv_store --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/zcbench (default .bench_build/zcbench);
build output goes to stderr.  The benchmark's detail line and, last, its
result line go to stdout.  A traced run writes its spans under .bench_out/.
The script refuses to print a result whose metric names differ from the
ones BENCHMARK.json lists for that mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"zcbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "zcbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "zcbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result line has keys {sorted(result)}")
    expected = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and got != expected:
        fail(f"metrics {got} differ from BENCHMARK.json {expected}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "zc_backend.hpp")):
        fail(f"the program's sources are missing under {ROOT}/src")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "zcbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

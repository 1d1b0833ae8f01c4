#!/usr/bin/env python3
"""Runs one perfbench workload from the root of a privsan checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds privsan and the benchmark program from source under .bench_build/perfbench
(the first run compiles; later runs reuse the build), runs the workload in
its own process, and prints its result as the last line of standard
output: {"correct", "attempted", "failed", "metrics"} with every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). Build output and progress go to standard error. Exits
non-zero, without a result line, when the sources are missing or the run
cannot complete, and non-zero with a result line when an answer failed
verification.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no privsan sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / target


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("perfbench")
    spans = BUILD_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spans", str(spans)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"run exited {done.returncode} without a result")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json")
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

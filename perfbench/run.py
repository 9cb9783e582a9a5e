#!/usr/bin/env python3
"""End-to-end benchmark of the repository (see BENCHMARK.json).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json for --trace 0, the per-layer ones
for --trace 1. A workload with an open-loop phase takes its frozen rate from
the "<x> req/s" in its BENCHMARK.json "why". The harness writes its full
report (phase accounting, sample counts, host fingerprint, gate results) and
the traced run's spans under <build dir>/results.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "engine.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = {w["name"]: w for w in bench["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)}")
    rate = re.search(r"([0-9]+(?:\.[0-9]+)?) req/s", workloads[args.workload]["why"])
    expected = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", os.path.join(build_dir, "results")] +
            (["--rate", rate.group(1)] if rate else []),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        fail(f"harness metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    for m in expected:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} is {metrics[m['name']]['unit']}, expected {m['unit']}")
    print(f"harness wall time: {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {m["name"]: metrics[m["name"]] for m in expected}}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Fleet benchmark of record: build, self-test, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_fleet --seed 1 --seconds 10 --trace 0

Builds the simulator from src/ together with the benchmark into
.bench_build/ (incremental after the first run), runs the benchmark's
arithmetic self-test, then runs one workload. The benchmark's own
tables go to stdout; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list (untraced run); with
--trace 1 its per_layer list (traced run). The full result, with
every metric, work count, check and digest, is kept in
.bench_build/results/ for compare.py.

Exits non-zero, without a result line, when the build, the self-test
or the run fails; exits 1 after the result line when an output check
failed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RESULTS_DIR = os.path.join(".bench_build", "results")
# One process runs at most this many threads; it is also the build's
# job count.
WORKERS = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(src_dir):
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", src_dir, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    done = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(WORKERS)],
        stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join("src", "core",
                                       "far_memory_system.h")):
        fail("run from the repository root (src/ not found)")
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {names})")

    build(here)
    if subprocess.run([os.path.join(BUILD_DIR, "arith_test")]).returncode:
        fail("arithmetic self-test failed")

    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(
        RESULTS_DIR,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    sys.stdout.flush()
    try:
        run = subprocess.run(
            [os.path.join(BUILD_DIR, "fleetbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", WORK_DIR, "--out", out],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if not os.path.isfile(out):
        fail(f"run failed with exit code {run.returncode} and no result")
    with open(out) as f:
        result = json.load(f)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        got = result[section].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{section} metric {m['name']!r} missing or mis-unit")
        metrics[m["name"]] = got
    correct = run.returncode == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

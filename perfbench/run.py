#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ingest_open --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which builds the program's own clash_core target
from ../src) into .bench_build/perfbench, runs clash_perfbench for the
named workload, and passes its output through. The last line of
standard output is the result JSON: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Exits non-zero, without a result line, when the build fails, the run
times out, or the result does not match BENCHMARK.json; exits 1 with
"correct": false when a correctness check of the workload fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ingest_open", "resolve_skewed", "sim_fig4")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j3"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "clash_perfbench")
    if not os.path.exists(exe):
        fail("build produced no clash_perfbench")
    return exe


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, out_root, "perfbench")
    exe = build(bench_dir, build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--bench-dir", bench_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if r.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{args.workload} exited {r.returncode} without a result")

    want = expected_metrics(root, args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if want is not None and got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics {sorted(set(got.items()) ^ set(want.items()))} "
             "differ from BENCHMARK.json")

    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()

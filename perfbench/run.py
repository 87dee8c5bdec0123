#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the RDF-TX library.

Run from the repository root:

    python3 perfbench/run.py --workload wiki-mix --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (a CMake project compiled
against ../src) into $CARGO_TARGET_DIR, or .bench_build when that is not
set. The workload then runs in its own process. Its report lines are
passed through, and the last line printed is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json names: the end_to_end ones with --trace 0, the per_layer
ones with --trace 1. Per-layer metrics that a workload does not produce
(the live-store metrics on the read workloads, the optimizer on
live-ingest) read 0.

BENCHMARK.json lists the benchmarked workloads, wiki-mix and live-ingest.
gov-star (3-7 pattern subject stars whose cost is mostly join-order
optimization) runs the same way but is not listed: on a shared 4-vCPU
host its run-to-run spread across seeds was about 0.25, the largest
bound a metric may have.

Two extra flags serve the benchmark's own tests (perfbench/selftest.py):
--scale X multiplies every dataset size, and --drop-row removes one row
from one timed answer, which the answer check must count as a failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# A run must end within 180 s of starting; the build before it is not
# counted against this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds the benchmark; returns the binary."""
    cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--parallel", "2"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "rdftx_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--drop-row", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(out_dir, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", work_dir]
    if args.drop_row:
        cmd.append("--drop-row")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        log(f"workload exited with code {proc.returncode}")
        return proc.returncode or 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("workload printed no result line")
        return 3
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            return 3
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload runs on tiny inputs, untraced and traced. Each
   result line must report a correct run with no failed operation and
   carry every metric BENCHMARK.json names for that mode, with its unit
   and a finite value; end-to-end values must be positive.
2. Negative: with one row dropped from one timed answer, the answer
   check must count a failure and the run must not report correct.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Every workload the benchmark runs, BENCHMARK.json's and gov-star, at a
# tiny but non-degenerate scale (gov-star still finds 3-7 pattern stars).
SCALE = {"wiki-mix": 0.03, "gov-star": 0.1, "live-ingest": 0.1}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", str(SCALE[workload]), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def check_smoke(spec, workload, trace):
    res = run(workload, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert res["correct"] is True, res
    assert res["failed"] == 0 and res["attempted"] >= 1, res
    assert set(res["metrics"]) == {m["name"] for m in wanted}, res["metrics"]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), got
        if not trace:
            assert value > 0, (m["name"], value)


def check_dropped_row_counts():
    res = run("wiki-mix", 0, "--drop-row")
    assert res["failed"] >= 1, res
    assert res["correct"] is False, res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    cases = [(f"smoke {w} trace={t}",
              lambda w=w, t=t: check_smoke(spec, w, t))
             for w in SCALE for t in (0, 1)]
    cases.append(("dropped row is counted", check_dropped_row_counts))
    failures = 0
    for name, fn in cases:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark self-tests.

    python3 perfbench/tests/selftest.py

1. Builds the benchmark and runs perfbench_selftest (tests/selftest.cpp):
   seeded inputs are byte-identical per seed, and self time is right on
   a hand-built span tree.
2. Runs perfbench/run.py briefly on every workload, untraced then traced
   with the same seed: each run must pass its output checks and print a
   correct result line with the metric set BENCHMARK.json names, and the
   second run must match the first one's behaviour fingerprint.
3. Every per-layer metric BENCHMARK.json names is measured by at least
   one workload's traced run (run.py reports an unmeasured per-layer
   metric as 0, so the result lines alone cannot show a missing one).

Uses the same build directory as run.py ($CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)


def main():
    bdir = run.build(run.build_dir())
    failures = 0
    r = subprocess.run([os.path.join(bdir, "perfbench_selftest")])
    if r.returncode != 0:
        print("FAIL: perfbench_selftest", file=sys.stderr)
        failures += 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    results = os.path.join(bdir, "results.jsonl")
    seen = os.path.getsize(results) if os.path.exists(results) else 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w["name"],
                 "--seed", "11", "--seconds", "1", "--trace", str(trace), "--quick"],
                capture_output=True, text=True, cwd=ROOT)
            name = "%s trace=%d" % (w["name"], trace)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("FAIL: %s exited %d\n%s" % (name, out.returncode, out.stderr[-2000:]),
                      file=sys.stderr)
                failures += 1
                continue
            res = json.loads(lines[-1])
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            ok = (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                  and set(res["metrics"]) == want
                  and set(res) == {"correct", "attempted", "failed", "metrics"})
            print("%s: %s" % ("ok" if ok else "FAIL", name), file=sys.stderr)
            if not ok:
                print(out.stdout[-2000:], file=sys.stderr)
                failures += 1
    measured = set()
    with open(results) as f:
        f.seek(seen)
        for line in f:
            meta = json.loads(line)
            if meta["trace"]:
                measured |= set(meta["all_metrics"])
    missing = sorted({m["name"] for m in spec["per_layer"]} - measured)
    print("%s: every per-layer metric is measured%s" % ("FAIL" if missing else "ok",
          ": missing " + ", ".join(missing) if missing else ""), file=sys.stderr)
    failures += bool(missing)

    print("all self-tests passed" if failures == 0 else "%d self-test(s) FAILED" % failures,
          file=sys.stderr)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

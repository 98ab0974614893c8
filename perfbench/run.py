#!/usr/bin/env python3
"""Build and run one libhfsc benchmark workload; print one result line.

    python3 perfbench/run.py --workload edge_64k --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, compiling the library
from ../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build, on
first use; then runs the workload once.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1.  The line before it carries the run's metadata.
Every result is also appended, with its metadata, sample counts and
behaviour fingerprint, to <build dir>/results.jsonl.

Exits 2 without a result when the library sources or BENCHMARK.json are
missing, or when the build fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest():
    """SHA-256 over the library sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_sha():
    """HEAD of the repository whose root is ROOT; "none" otherwise (an
    enclosing repository's HEAD would describe other sources)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def build(bdir):
    """Configures (once) and builds the benchmark; returns the build dir."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                die("build failed: " + " ".join(cmd))
    return bdir


def check_fingerprint(bdir, digest, key, fp):
    """Stores the first fingerprint of (sources, workload, seed); returns a
    failure message when a later run of the same key disagrees."""
    d = os.path.join(bdir, "fingerprints", digest[:16])
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old != fp:
            return "fingerprint differs from an earlier run of this seed: %s vs %s" % (old, fp)
        return None
    with open(path, "w") as f:
        json.dump(fp, f, sort_keys=True)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-test size: small hierarchies, same code paths")
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "hfsc.hpp")):
        die("libhfsc sources not found under %s/src" % ROOT)
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_json):
        die("BENCHMARK.json not found at " + bench_json)
    with open(bench_json) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die("unknown workload " + args.workload)

    bdir = build(build_dir())
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".spans.jsonl")]
    if args.quick:
        cmd.append("--quick")
    limit = max(30.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %.0f s" % limit)
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        die("workload exited with code %d" % r.returncode)
    raw = json.loads(lines[-1])

    digest = source_digest()
    failures = list(raw["failures"])
    failed = raw["failed"]
    key = "%s-%d%s" % (args.workload, args.seed, "-quick" if args.quick else "")
    mismatch = check_fingerprint(bdir, digest, key, raw["fingerprint"])
    if mismatch:
        failures.append(mismatch)
        failed += 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and not args.trace:
            failures.append("metric %s was not measured" % m["name"])
            failed += 1
        # A per-layer metric a workload does not exercise reads 0.
        value = got["value"] if got else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "nproc": raw["nproc"],
        "build_type": raw["build_type"], "compiler": raw["compiler"],
        "git_sha": git_sha(), "source_sha256": digest, "samples": raw["samples"],
        "fingerprint": raw["fingerprint"], "failures": failures,
        "all_metrics": raw["metrics"],
    }
    with open(os.path.join(bdir, "results.jsonl"), "a") as f:
        f.write(json.dumps(meta, sort_keys=True) + "\n")
    print(json.dumps({k: meta[k] for k in ("workload", "seed", "nproc", "build_type",
                                           "compiler", "git_sha", "source_sha256",
                                           "samples", "fingerprint", "failures")}))
    attempted = max(1, int(raw["attempted"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()

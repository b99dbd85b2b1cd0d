#!/usr/bin/env python3
"""Repository benchmark: build perfbench/hdsbench from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk_u64 --seed 1 --seconds 25 --trace 0

Builds hdsbench with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, and forwards its output. The last stdout
line is one JSON object with the keys correct, attempted, failed and metrics;
with --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero, without that line, when the
library sources are missing, the build fails or the metrics do not match
BENCHMARK.json; exits 1 after printing it when a sort failed verification.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable here but not listed in BENCHMARK.json: its host wall time is
# scheduler-bound and too unsteady for a bound (see README.md).
UNLISTED_WORKLOADS = ["scale_p1024"]
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "histogram_sort.h")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if r.returncode != 0:
            fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")
    return os.path.join(out, "hdsbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, want):
    """Fail unless `line` is a result whose metrics are exactly `want`
    (name -> unit)."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("hdsbench did not end with a JSON line", 3)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}", 3)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}", 3)


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]] +
                    UNLISTED_WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--small", action="store_true",
                    help="shrunken inputs for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    out = build_dir()
    exe = build(out)
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.small:
        cmd.append("--small")
    if args.trace:
        spans = os.path.join(out, "spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd.append(f"--spans={spans}")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("hdsbench timed out", 4)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail(f"hdsbench exited with {r.returncode} and no result", 4)
    check_result(lines[-1], {m["name"]: m["unit"] for m in
                             spec["per_layer" if args.trace else "end_to_end"]})
    print("\n".join(lines), flush=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()

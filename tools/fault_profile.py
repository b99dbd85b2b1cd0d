#!/usr/bin/env python3
"""Minor page faults and system seconds per sort of the repository benchmark.

Runs the built perfbench/hdsbench binary (untraced) once per workload for a
short and once for a long duration, reads each child's resource usage with
getrusage(RUSAGE_CHILDREN), and divides the difference of the two runs by
the difference of their sort counts. Set-up (Team construction, input
generation) and the warm-up sort are the same in both runs, so they cancel
and the figures are those of a steady-state sort.

Usage (from the repository root, after `python3 perfbench/run.py ...` has
built the binary, or with --hdsbench pointing at one):

    python3 tools/fault_profile.py [--workload bulk_u64 ...] [--seconds 10]
        [--seed 1] [--hdsbench PATH] [--json]

Prints one row per workload: sorts timed, minor faults per sort, major
faults per sort, system and user CPU seconds per sort. With --json the rows
are one JSON object instead. Exit status: 0 on success, 2 when the binary is
missing or a run fails. Standard library only; Linux/POSIX resource usage.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_WORKLOADS = ["bulk_u64", "records_zipf"]


def default_binary() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench", "hdsbench")


def run_once(exe: str, workload: str, seed: int, seconds: float) -> dict:
    """One hdsbench run; returns its sort count and resource usage."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    r = subprocess.run(
        [exe, f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds}", "--trace=0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    last = r.stdout.rstrip("\n").split("\n")[-1]
    if r.returncode != 0 or not last.startswith("{"):
        sys.exit(f"fault_profile: hdsbench {workload} exited with "
                 f"{r.returncode}")
    return {
        "sorts": json.loads(last)["attempted"],
        "minflt": after.ru_minflt - before.ru_minflt,
        "majflt": after.ru_majflt - before.ru_majflt,
        "sys_s": after.ru_stime - before.ru_stime,
        "user_s": after.ru_utime - before.ru_utime,
    }


def profile(exe: str, workload: str, seed: int, seconds: float) -> dict:
    short = run_once(exe, workload, seed, 0.0)
    long = run_once(exe, workload, seed, seconds)
    sorts = long["sorts"] - short["sorts"]
    if sorts <= 0:
        sys.exit(f"fault_profile: {workload}: the long run timed no extra "
                 f"sort; raise --seconds")
    row = {"workload": workload, "sorts": sorts}
    for k in ("minflt", "majflt", "sys_s", "user_s"):
        row[f"{k}_per_sort"] = (long[k] - short[k]) / sorts
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: "
                         + ", ".join(DEFAULT_WORKLOADS) + ")")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="duration of the long run (default 10)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--hdsbench", default=default_binary(),
                    help="hdsbench binary (default: %(default)s)")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    if not os.access(args.hdsbench, os.X_OK):
        print(f"fault_profile: no hdsbench binary at {args.hdsbench}; build "
              f"it with perfbench/run.py or pass --hdsbench", file=sys.stderr)
        sys.exit(2)

    rows = [profile(args.hdsbench, w, args.seed, args.seconds)
            for w in args.workload or DEFAULT_WORKLOADS]
    if args.json:
        print(json.dumps(rows))
        return
    print(f"{'workload':<14}{'sorts':>7}{'minflt/sort':>14}"
          f"{'majflt/sort':>13}{'sys_s/sort':>12}{'user_s/sort':>13}")
    for r in rows:
        print(f"{r['workload']:<14}{r['sorts']:>7}"
              f"{r['minflt_per_sort']:>14.0f}{r['majflt_per_sort']:>13.1f}"
              f"{r['sys_s_per_sort']:>12.4f}{r['user_s_per_sort']:>13.4f}")


if __name__ == "__main__":
    main()

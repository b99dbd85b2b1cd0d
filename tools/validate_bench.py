#!/usr/bin/env python3
"""Validate and gate the machine-readable artifacts the benches emit.

One entry point replaces the inline python blocks ci.sh used to carry:

    validate_bench.py local_sort BENCH_local_sort.json
    validate_bench.py exchange   BENCH_exchange.json
    validate_bench.py recovery   BENCH_recovery.json
    validate_bench.py histogram  BENCH_histogram.json
    validate_bench.py ledger     ledger.json [ledger2.json ...]

Kinds and their gates (unchanged from the historical ci.sh heredocs):
  local_sort  cell shape (median, quartiles and reps on every cell); the
              radix kernel must beat std::sort at n = 2^20 on uniform u64
              keys and on 16-byte u64x2_record records, which it sorts in
              place (the wall-clock claims behind Auto dispatch for keys
              and for records); and the k = 4 k-way merge must beat the
              radix re-sort of the same runs on both types (the premise
              of MergeStrategy::Auto merging at small fan-in).
  exchange    cell shape incl. per-round k-ary breakdowns: alltoallv
              exchange and exchange+merge cells at every (type, P), and
              k-ary cells carrying their speedup over the alltoallv
              exchange+merge cell. Wall-clock only; no ratio gate.
  recovery    cell shape; fault-free checkpoint overhead <= 10% at
              P in {4, 8, 16}; ResumeCheckpoint beats RestartFull for
              crashes at or after the exchange superstep.
  histogram   cell shape of the PR 10 histogram-mode sweep
              (BENCH_histogram.json); every (dist, epsilon, P) cell
              carries all three modes; hybrid must cut histogram-phase
              sim time >= 1.2x AND probe volume vs dense on the canonical
              uniform u64 P=16 eps=0.01 cell, and may never regress the
              makespan by > 5% in any cell.
  ledger      hds-run-ledger schema check: versioned header, op-class /
              sample / feature cross-consistency, and the fit never losing
              to the probe surrogate (err2_fit <= err2_default).
  model-report  hds-model-report schema check (examples/model_check --json):
              the static matcher saw no schedule mismatches, every
              exploration ran clean and deterministic (byte-identical
              output, exact sim-time equality across interleavings), and
              every seeded protocol mutation was caught with a replayable
              counterexample.

Exit status: 0 OK, 1 gate failure or malformed artifact, 2 usage error.
No dependencies beyond the standard library.
"""

from __future__ import annotations

import json
import sys


def fail(msg: str) -> None:
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def load(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_local_sort(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    for c in cells:
        for k in ("type", "n", "kernel", "seconds_median", "seconds_p25",
                  "seconds_p75", "reps"):
            require(k in c, f"missing field {k}: {c}")
        require(c["reps"] >= 1 and
                c["seconds_p25"] <= c["seconds_median"] <= c["seconds_p75"],
                f"bad reps or quartiles: {c}")
        if c["kernel"] in ("comparison", "radix"):
            require("speedup_vs_comparison" in c,
                    f"missing field speedup_vs_comparison: {c}")
        else:
            require(c["kernel"] in ("kway_merge", "radix_resort"),
                    f"unknown kernel: {c}")
            require(c.get("k", 0) >= 2, f"merge cell without k: {c}")
            if c["kernel"] == "kway_merge":
                require("speedup_vs_resort" in c,
                        f"missing field speedup_vs_resort: {c}")
    speedups = []
    for t in ("u64", "u64x2_record"):
        target = [c for c in cells
                  if c["type"] == t and c["n"] == 1 << 20 and
                  c["kernel"] == "radix"]
        require(bool(target), f"no {t} radix cell at n=2^20")
        speedup = target[0]["speedup_vs_comparison"]
        require(speedup > 1.0,
                f"radix lost to std::sort on {t} at 2^20: {speedup}x")
        speedups.append(f"{speedup:.2f}x on {t}")
    print(f"perf smoke OK: radix faster than std::sort at n=2^20 "
          f"({', '.join(speedups)})")
    merges = []
    for t in ("u64", "u64x2_record"):
        for kernel in ("kway_merge", "radix_resort"):
            require(any(c["type"] == t and c["kernel"] == kernel and
                        c.get("k") == 4 for c in cells),
                    f"no {t} k=4 {kernel} cell")
        cell = next(c for c in cells if c["type"] == t and
                    c["kernel"] == "kway_merge" and c.get("k") == 4)
        speedup = cell["speedup_vs_resort"]
        require(speedup > 1.0,
                f"k=4 merge lost to the radix re-sort on {t}: {speedup}x")
        merges.append(f"{speedup:.2f}x on {t}")
    print(f"merge smoke OK: k=4 merge faster than the radix re-sort "
          f"({', '.join(merges)})")


def check_exchange(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    for c in cells:
        for k in ("type", "nranks", "phase", "n_per_rank",
                  "seconds_median", "algo", "k"):
            require(k in c, f"missing field {k}: {c}")
        require(c["phase"] in ("exchange", "exchange+merge"), str(c))
        require(c["algo"] in ("alltoallv", "kary"), str(c))
        require(c["seconds_median"] > 0.0, str(c))
        if c["algo"] == "kary":
            require(c["k"] >= 2 and c["phase"] == "exchange+merge", str(c))
            require(c.get("speedup_vs_alltoallv", 0.0) > 0.0,
                    f"kary cell missing speedup_vs_alltoallv: {c}")
            require(bool(c.get("rounds")),
                    f"kary cell missing per-round breakdown: {c}")
            for r in c["rounds"]:
                require(r["exchange_s"] >= 0.0 and r["merge_s"] >= 0.0,
                        str(c))
        else:
            require(c["k"] == 0 and "rounds" not in c, str(c))
    shapes = {(c["type"], c["nranks"]) for c in cells}
    for t, p in sorted(shapes):
        for phase in ("exchange", "exchange+merge"):
            require(any(c["type"] == t and c["nranks"] == p and
                        c["algo"] == "alltoallv" and c["phase"] == phase
                        for c in cells),
                    f"no {t} P={p} alltoallv {phase} cell")
    kary = [c for c in cells
            if c["algo"] == "kary" and c["type"] == "u64" and
            c["nranks"] == 16]
    require(bool(kary), "no u64 P=16 kary cells")
    best = max(kary, key=lambda c: c["speedup_vs_alltoallv"])
    print(f"exchange cells OK ({len(cells)}): best k-ary k={best['k']} "
          f"{best['speedup_vs_alltoallv']:.2f}x vs alltoallv "
          "(u64, P=16, exchange+merge supersteps; wall-clock, not gated)")


def check_recovery(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    for c in cells:
        for k in ("kind", "nranks", "crash", "mode", "n_per_rank",
                  "sim_seconds", "vs_restart", "overhead_frac",
                  "recomputed_fraction", "recover_s", "attempts",
                  "checkpoint_bytes"):
            require(k in c, f"missing field {k}: {c}")
        require(c["kind"] in ("overhead", "crash"), str(c))
        require(c["sim_seconds"] > 0.0, str(c))
    ovh = [c for c in cells
           if c["kind"] == "overhead" and c["mode"] == "checkpointed"]
    require(len(ovh) == 3, "expected overhead cells at P in {4, 8, 16}")
    for c in ovh:
        require(c["overhead_frac"] <= 0.10,
                f"checkpoint overhead {c['overhead_frac']:.1%} > 10% "
                f"at P={c['nranks']}")
    for crash in ("exchange-begin", "exchange-end"):
        resume = [c for c in cells if c["kind"] == "crash"
                  and c["crash"] == crash and
                  c["mode"] == "ResumeCheckpoint"]
        require(bool(resume), f"no ResumeCheckpoint cell for {crash}")
        require(resume[0]["vs_restart"] > 1.0,
                f"resume did not beat restart at {crash}: "
                f"{resume[0]['vs_restart']:.2f}x")
        require(resume[0]["recomputed_fraction"] < 1.0, str(resume[0]))
    print("recovery gate OK: overhead <= 10% at P in {4,8,16}, resume "
          "beats restart at/after the exchange superstep")


def check_histogram(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    by_cell: dict[tuple, dict[str, dict]] = {}
    for c in cells:
        for k in ("type", "dist", "epsilon", "nranks", "mode", "iterations",
                  "sampled_rounds", "probes_total", "hist_bytes_sampled",
                  "hist_bytes_dense", "histogram_s", "makespan_s"):
            require(k in c, f"missing field {k}: {c}")
        require(c["mode"] in ("dense", "sampled", "hybrid"), str(c))
        require(c["histogram_s"] > 0.0 and c["makespan_s"] > 0.0, str(c))
        require(c["iterations"] >= 1, str(c))
        if c["mode"] == "dense":
            require(c["sampled_rounds"] == 0 and
                    c["hist_bytes_sampled"] == 0,
                    f"dense cell with sampled traffic: {c}")
        by_cell.setdefault(
            (c["dist"], c["epsilon"], c["nranks"]), {})[c["mode"]] = c
    for key, modes in by_cell.items():
        require(set(modes) == {"dense", "sampled", "hybrid"},
                f"cell {key} missing modes: has {sorted(modes)}")
        dense, hybrid = modes["dense"], modes["hybrid"]
        ratio = hybrid["makespan_s"] / dense["makespan_s"]
        require(ratio <= 1.05,
                f"hybrid regresses makespan {ratio:.2f}x at {key}")
    gated = by_cell.get(("uniform", 0.01, 16))
    require(gated is not None, "no uniform eps=0.01 P=16 cell")
    dense, hybrid = gated["dense"], gated["hybrid"]
    speedup = dense["histogram_s"] / hybrid["histogram_s"]
    require(speedup >= 1.2,
            f"hybrid histogram phase only {speedup:.2f}x vs dense on "
            "uniform u64 P=16 eps=0.01 (< 1.2x)")
    require(hybrid["probes_total"] < dense["probes_total"],
            f"hybrid probed {hybrid['probes_total']} candidates vs dense "
            f"{dense['probes_total']} on the gated cell")
    print(f"perf gate OK: hybrid histogram phase {speedup:.2f}x faster than "
          f"dense (u64 uniform, P=16, eps=0.01; probes "
          f"{hybrid['probes_total']} vs {dense['probes_total']}), makespan "
          f"within 5% on all {len(by_cell)} cells")


def check_ledger(path: str) -> None:
    led = load(path)
    require(isinstance(led, dict), f"{path}: not a JSON object")
    require(led.get("schema") == "hds-run-ledger",
            f"{path}: schema is {led.get('schema')!r}")
    require(led.get("version") == 1, f"{path}: unknown ledger version")
    for k in ("bench", "nranks", "makespan_s", "config", "machine",
              "phases", "phase_seconds", "op_classes", "samples",
              "timeline", "counters", "scalars"):
        require(k in led, f"{path}: missing key {k!r}")
    P = led["nranks"]
    require(isinstance(P, int) and P >= 1, f"{path}: bad nranks {P}")
    require(len(led["phase_seconds"]) in (0, P),
            f"{path}: phase_seconds has {len(led['phase_seconds'])} rows "
            f"for {P} ranks")
    nsamples = 0
    for name, st in led["op_classes"].items():
        for k in ("count", "bytes", "slice_s", "model_s", "max_slice_s"):
            require(k in st, f"{path}: op class {name} missing {k}")
        require(st["count"] > 0, f"{path}: op class {name} with count 0")
        # model charge never exceeds the slice span it was recorded in
        require(st["model_s"] <= st["slice_s"] + 1e-9,
                f"{path}: {name} model_s {st['model_s']} > slice_s "
                f"{st['slice_s']}")
        if name not in ("compute", "none"):
            nsamples += st["count"]
    require(len(led["samples"]) == nsamples,
            f"{path}: {len(led['samples'])} samples but op classes total "
            f"{nsamples}")
    for s in led["samples"]:
        require(len(s) == 4, f"{path}: malformed sample {s}")
    if "features" in led:
        ft = led["features"]
        require(ft["total_err2_fit"] <= ft["total_err2_default"] + 1e-18,
                f"{path}: fit lost to the probe surrogate "
                f"({ft['total_err2_fit']} > {ft['total_err2_default']})")
        for name, f in ft["classes"].items():
            require(f["err2_fit"] <= f["err2_default"] + 1e-18,
                    f"{path}: class {name} fit lost to the surrogate")
    print(f"ledger OK: {path} ({led['bench']}, P={P}, "
          f"{len(led['samples'])} samples, "
          f"{len(led['scalars'])} scalar cells)")


def check_model_report(path: str) -> None:
    rep = load(path)
    require(isinstance(rep, dict), f"{path}: not a JSON object")
    require(rep.get("schema") == "hds-model-report",
            f"{path}: schema is {rep.get('schema')!r}")
    require(rep.get("version") == 1, f"{path}: unknown model-report version")
    for k in ("matcher", "explorations", "mutations"):
        require(k in rep, f"{path}: missing key {k!r}")

    mt = rep["matcher"]
    for k in ("configs", "failures", "ops", "loans_opened", "loans_waited"):
        require(k in mt, f"{path}: matcher missing {k!r}")
    require(mt["configs"] >= 1, f"{path}: matcher ran no configurations")
    require(mt["failures"] == 0,
            f"{path}: static matcher found {mt['failures']} schedule "
            "mismatch(es)")
    require(mt["loans_waited"] == mt["loans_opened"],
            f"{path}: {mt['loans_opened'] - mt['loans_waited']} loan(s) "
            "not explicitly waited")

    require(len(rep["explorations"]) >= 1, f"{path}: no explorations")
    for ex in rep["explorations"]:
        for k in ("scenario", "nranks", "runs", "decisions", "deterministic",
                  "issues", "counterexample"):
            require(k in ex, f"{path}: exploration missing {k!r}")
        name = ex["scenario"]
        require(ex["runs"] >= 1, f"{path}: {name}: no runs executed")
        require(ex["deterministic"] is True,
                f"{path}: {name}: output/sim-time diverged across schedules")
        require(ex["issues"] == [],
                f"{path}: {name}: oracle violations: {ex['issues']}")

    require(len(rep["mutations"]) >= 3,
            f"{path}: only {len(rep['mutations'])} seeded mutation(s) "
            "exercised (need >= 3)")
    for mu in rep["mutations"]:
        for k in ("scenario", "mutation", "caught", "kind", "counterexample"):
            require(k in mu, f"{path}: mutation entry missing {k!r}")
        require(mu["caught"] is True,
                f"{path}: seeded mutation {mu['mutation']!r} on "
                f"{mu['scenario']!r} was NOT caught by the explorer")
        require(len(mu["counterexample"]) > 0,
                f"{path}: mutation {mu['mutation']!r} caught without a "
                "replayable counterexample")
    print(f"model-report OK: {path} (matcher configs={mt['configs']}, "
          f"{len(rep['explorations'])} exploration(s), "
          f"{len(rep['mutations'])} mutation(s) caught)")


KINDS = {
    "local_sort": check_local_sort,
    "exchange": check_exchange,
    "recovery": check_recovery,
    "histogram": check_histogram,
    "ledger": check_ledger,
    "model-report": check_model_report,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in KINDS:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[2:]:
        KINDS[argv[1]](path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

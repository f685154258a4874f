#!/usr/bin/env python3
"""Throughput regression gate for the shared cycle engine.

Consumes a google-benchmark JSON report (BENCH_sim.json, produced by
    build/bench/bench_sim_throughput \
        --benchmark_filter='BM_CycleEngine|BM_SyntheticStream' \
        --benchmark_out=BENCH_sim.json --benchmark_out_format=json)
and enforces two properties:

1. Fast-forward speedup (machine-independent): on the stall-heavy galgel
   grid point, the baseline system's default run() (which fast-forwards)
   must simulate cycles at least --ff-min-speedup (default 1.15x) faster
   than the reference run_naive() cycle loop. Both sides run in the same process on the same machine, so
   this ratio is stable across hosts.

2. Absolute throughput vs the committed baseline (10% tolerance): each
   BM_CycleEngine variant's cycles/sec, *normalised by the
   BM_SyntheticStream calibration benchmark from the same run*, must not
   drop more than --tolerance below bench/BENCH_sim_baseline.json. The
   normalisation divides out raw host speed; what remains is "simulated
   cycles per generated stream op", which tracks engine efficiency. Skipped
   (with a notice) if --baseline is not given.

To refresh the committed baseline after a deliberate perf change:
    python3 tools/check_bench_regression.py BENCH_sim.json \
        --write-baseline bench/BENCH_sim_baseline.json

Campaign-scheduler mode (--campaign): consumes the JSON that
    build/bench/bench_campaign_scaling json=BENCH_campaign.json
writes ("unsync.bench_campaign_scaling.v1") and enforces:
1. identical == true — the scheduler never leaked into results.
2. Parallel efficiency at the largest non-oversubscribed worker count
   (workers <= hardware_concurrency) >= --min-efficiency (default 0.85).
   On hosts with a single core every multi-worker point is oversubscribed,
   so the gate falls back to the workers=1 point — which must stay near
   1.0 (scheduling overhead, not parallelism, is then what is bounded).

Prefix-sharing mode (--prefix): consumes the JSON that
    build/bench/bench_injection_prefix json=BENCH_prefix.json
writes ("unsync.bench_prefix.v1") and enforces the prefix-engine contract
(docs/CAMPAIGNS.md, "Prefix-sharing"):
1. identical == true — the prefix-shared campaign stayed byte-identical
   to the naive full-run campaign.
2. Whole-grid speedup >= --min-prefix-speedup (default 3x). Both
   campaigns run in the same process on the same grid, so the ratio is
   machine-independent the same way the ff gate is.
3. The deterministic engine counters (goldens built, jobs restored /
   spliced / bypassed, cycles skipped) exactly match the committed
   baseline (--prefix-baseline bench/BENCH_prefix_baseline.json) — they
   are a pure function of the grid, so any drift means the engine's
   sharing decisions changed. Skipped (with a notice) if
   --prefix-baseline is not given.

To refresh after a deliberate engine change:
    python3 tools/check_bench_regression.py BENCH_prefix.json --prefix \
        --write-prefix-baseline bench/BENCH_prefix_baseline.json

System-matrix mode (--systems): consumes the JSON that
    build/bench/bench_system_matrix json=BENCH_systems.json
writes ("unsync.bench_systems.v1") and enforces the cross-architecture
acceptance surface (docs/SYSTEMS.md):
1. identical == true — the matrix is worker-count deterministic.
2. Coverage: at every ser>0 point hetero detects ALL injected strikes
   and at least matches lockstep's coverage.
3. Overhead: hetero's error-free cycles undercut reunion's (the
   fingerprint-synchronised DMR) on every benchmark.
4. Every gated per-cell integer (cycles, injected, detected, ...)
   exactly matches the committed baseline
   (--systems-baseline bench/BENCH_systems_baseline.json). Skipped
   (with a notice) if --systems-baseline is not given.

To refresh after a deliberate model change:
    python3 tools/check_bench_regression.py BENCH_systems.json --systems \
        --write-systems-baseline bench/BENCH_systems_baseline.json

Exit codes: 0 pass, 1 regression detected, 2 usage/input error.
"""

import argparse
import json
import sys

CALIBRATION = "BM_SyntheticStream"
BASELINE_SCHEMA = "unsync.bench_baseline.v1"


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read benchmark report {path}: {e}")
        sys.exit(2)
    out = {}
    for b in report.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if b.get("run_type") == "aggregate":
            continue
        if "items_per_second" in b:
            out[b["name"]] = float(b["items_per_second"])
    if not out:
        print(f"error: no items_per_second entries in {path}")
        sys.exit(2)
    return out


def check_ff_speedup(ips, min_speedup):
    """The machine-independent gate: default run() (ff) vs run_naive(),
    same run, same host."""
    ok = True
    pairs = []
    for name in sorted(ips):
        if name.endswith("_naive"):
            ff_name = name[: -len("_naive")] + "_ff"
            if ff_name in ips:
                pairs.append((name, ff_name))
    if not pairs:
        print("error: no BM_CycleEngine naive/ff pairs in report")
        sys.exit(2)
    for naive, ff in pairs:
        ratio = ips[ff] / ips[naive]
        gated = "baseline" in naive  # the acceptance point (docs/ENGINE.md)
        verdict = "ok"
        if gated and ratio < min_speedup:
            verdict = f"FAIL (< {min_speedup:.2f}x required)"
            ok = False
        print(f"  ff speedup {naive.split('/')[-1].replace('_naive', ''):>10}"
              f": {ratio:5.2f}x  {'[gated] ' if gated else ''}{verdict}")
    return ok


def normalised(ips):
    cal = ips.get(CALIBRATION)
    if not cal:
        print(f"error: calibration benchmark {CALIBRATION} missing from "
              "report (do not pass --benchmark_filter that excludes it)")
        sys.exit(2)
    return {
        name: v / cal
        for name, v in ips.items()
        if name.startswith("BM_CycleEngine")
    }


def check_against_baseline(ips, baseline_path, tolerance):
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read baseline {baseline_path}: {e}")
        sys.exit(2)
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"error: {baseline_path} is not a {BASELINE_SCHEMA} file")
        sys.exit(2)
    current = normalised(ips)
    ok = True
    for name, base in sorted(baseline["benchmarks"].items()):
        cur = current.get(name)
        if cur is None:
            print(f"  vs baseline {name}: MISSING from current report")
            ok = False
            continue
        rel = cur / base
        verdict = "ok"
        if rel < 1.0 - tolerance:
            verdict = f"FAIL (>{tolerance:.0%} regression)"
            ok = False
        print(f"  vs baseline {name}: {rel:6.2%} of recorded throughput "
              f"{verdict}")
    return ok


def write_baseline(ips, path):
    doc = {
        "schema": BASELINE_SCHEMA,
        "calibration": CALIBRATION,
        "note": ("normalised throughput: BM_CycleEngine items_per_second / "
                 f"{CALIBRATION} items_per_second from the same run"),
        "benchmarks": {k: round(v, 6) for k, v in sorted(normalised(ips).items())},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote baseline {path} ({len(doc['benchmarks'])} entries)")


CAMPAIGN_SCHEMA = "unsync.bench_campaign_scaling.v1"


def check_campaign(path, min_efficiency):
    """Gate the work-stealing scheduler's scaling report."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read campaign report {path}: {e}")
        sys.exit(2)
    if report.get("schema") != CAMPAIGN_SCHEMA:
        print(f"error: {path} is not a {CAMPAIGN_SCHEMA} file")
        sys.exit(2)

    ok = True
    if report.get("identical") is not True:
        print("  campaign: FAIL — results were NOT identical across "
              "worker counts (determinism contract broken)")
        ok = False
    else:
        print("  campaign: results identical across every worker count")

    cores = int(report.get("hardware_concurrency", 1))
    points = report.get("points", [])
    if not points:
        print("error: no scaling points in report")
        sys.exit(2)

    # The gated point: the largest worker count the host can actually run
    # in parallel (falls back to workers=1 on a single-core host, where the
    # gate bounds pure scheduling overhead instead).
    eligible = [p for p in points if p["workers"] <= cores]
    gated = max(eligible or points[:1], key=lambda p: p["workers"])
    eff = float(gated["efficiency"])
    verdict = "ok"
    if eff < min_efficiency:
        verdict = f"FAIL (< {min_efficiency:.2f} required)"
        ok = False
    print(f"  campaign: efficiency at workers={gated['workers']} "
          f"(cores={cores}): {eff:.2f}  [gated] {verdict}")
    return ok


PREFIX_SCHEMA = "unsync.bench_prefix.v1"
PREFIX_BASELINE_SCHEMA = "unsync.prefix_baseline.v1"
# The counters that are a pure function of the grid (worker-count and
# host independent); timing counters (restore_ns) and cache-shape ones
# that scheduling may perturb (hits/misses under eviction) are not gated.
PREFIX_GATED_COUNTERS = ("goldens_built", "jobs_restored",
                         "jobs_early_terminated", "jobs_bypassed",
                         "cycles_skipped")


def load_prefix_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read prefix report {path}: {e}")
        sys.exit(2)
    if report.get("schema") != PREFIX_SCHEMA:
        print(f"error: {path} is not a {PREFIX_SCHEMA} file")
        sys.exit(2)
    return report


def check_prefix(report, min_speedup, baseline_path):
    """Gate the prefix-sharing campaign report."""
    ok = True

    if report.get("identical") is not True:
        print("  prefix: FAIL — prefix-shared campaign was NOT "
              "byte-identical to the naive run (execution-strategy "
              "contract broken)")
        ok = False
    else:
        print("  prefix: prefix-shared campaign byte-identical to naive")

    speedup = float(report.get("speedup", 0.0))
    verdict = "ok"
    if speedup < min_speedup:
        verdict = f"FAIL (< {min_speedup:.1f}x required)"
        ok = False
    print(f"  prefix: whole-grid speedup: {speedup:5.1f}x  [gated] "
          f"{verdict}")

    if not baseline_path:
        print("  (no --prefix-baseline given; skipping counter gate)")
        return ok

    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read prefix baseline {baseline_path}: {e}")
        sys.exit(2)
    if baseline.get("schema") != PREFIX_BASELINE_SCHEMA:
        print(f"error: {baseline_path} is not a "
              f"{PREFIX_BASELINE_SCHEMA} file")
        sys.exit(2)
    for field in ("insts", "seed", "trials", "prefix_interval"):
        if baseline.get(f"source_{field}") != report.get(field):
            print(f"  prefix: FAIL — report {field}={report.get(field)} "
                  f"does not match the baseline's grid "
                  f"({field}={baseline.get(f'source_{field}')})")
            return False

    counters = report.get("counters", {})
    for name, want in sorted(baseline["counters"].items()):
        got = counters.get(name)
        if got is None:
            print(f"  prefix counter {name}: MISSING from current report")
            ok = False
        elif int(got) != int(want):
            print(f"  prefix counter {name}: {got} != committed {want} "
                  "FAIL (exact integer equality required)")
            ok = False
    if ok:
        print(f"  prefix: all {len(baseline['counters'])} gated counters "
              "exactly match")
    return ok


def write_prefix_baseline(report, path):
    """Pin the grid-deterministic engine counters.

    The simulation and the engine's sharing decisions are deterministic,
    so for a fixed grid the gated counters are machine- and worker-count
    independent — the gate is exact integer equality.
    """
    doc = {
        "schema": PREFIX_BASELINE_SCHEMA,
        "note": ("grid-deterministic prefix-engine counters from "
                 "bench_injection_prefix; gate with "
                 "check_bench_regression.py --prefix --prefix-baseline"),
        "source_insts": report.get("insts"),
        "source_seed": report.get("seed"),
        "source_trials": report.get("trials"),
        "source_prefix_interval": report.get("prefix_interval"),
        "counters": {name: int(report["counters"][name])
                     for name in PREFIX_GATED_COUNTERS},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote prefix baseline {path} "
          f"({len(doc['counters'])} counters)")


SYSTEMS_SCHEMA = "unsync.bench_systems.v1"
SYSTEMS_BASELINE_SCHEMA = "unsync.systems_baseline.v1"
# Per-cell integers that are a pure function of the grid (the simulation
# is deterministic): exact-equality gated against the committed baseline.
SYSTEMS_GATED_FIELDS = ("cycles", "injected", "detected", "rollbacks",
                        "recoveries", "cb_full_stalls", "fingerprint_syncs")


def load_systems_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read systems report {path}: {e}")
        sys.exit(2)
    if report.get("schema") != SYSTEMS_SCHEMA:
        print(f"error: {path} is not a {SYSTEMS_SCHEMA} file")
        sys.exit(2)
    if not report.get("cells"):
        print(f"error: no cells in {path}")
        sys.exit(2)
    return report


def systems_cell_key(cell):
    return f"{cell['bench']}/{cell['system']}/ser={cell['ser']:g}"


def check_systems(report, baseline_path):
    """Gate the six-architecture comparison matrix.

    Properties: worker-count determinism; full detection coverage on the
    redundant systems at ser>0 — hetero must detect every injected strike
    and at least match lockstep's coverage; the heterogeneous checker's
    error-free overhead must undercut the fingerprint-synchronised DMR
    (reunion) on every benchmark; and every gated per-cell integer must
    exactly equal the committed baseline.
    """
    ok = True
    cells = report["cells"]

    if report.get("identical") is not True:
        print("  systems: FAIL — matrix differed across worker counts "
              "(determinism contract broken)")
        ok = False
    else:
        print("  systems: matrix identical across worker counts")

    by_key = {}
    benches = set()
    for c in cells:
        by_key[(c["bench"], c["system"], float(c["ser"]))] = c
        benches.add(c["bench"])

    sers = sorted({float(c["ser"]) for c in cells})
    error_sers = [s for s in sers if s > 0.0]
    if not error_sers:
        print("  systems: FAIL — no ser>0 rows to measure coverage on")
        return False

    for bench in sorted(benches):
        for ser in error_sers:
            het = by_key.get((bench, "hetero", ser))
            lock = by_key.get((bench, "lockstep", ser))
            if het is None or lock is None:
                print(f"  systems: FAIL — {bench}/ser={ser:g} missing a "
                      "hetero or lockstep cell")
                ok = False
                continue
            if het["injected"] == 0:
                print(f"  systems: FAIL — {bench}/ser={ser:g} injected no "
                      "strikes into hetero (grid too small to gate coverage)")
                ok = False
                continue
            het_cov = het["detected"] / het["injected"]
            lock_cov = (lock["detected"] / lock["injected"]
                        if lock["injected"] else 1.0)
            verdict = "ok"
            if het["detected"] != het["injected"]:
                verdict = "FAIL (hetero missed a strike)"
                ok = False
            elif het_cov < lock_cov:
                verdict = "FAIL (below lockstep coverage)"
                ok = False
            print(f"  systems coverage {bench}/ser={ser:g}: hetero "
                  f"{het['detected']}/{het['injected']} vs lockstep "
                  f"{lock['detected']}/{lock['injected']} {verdict}")

        het0 = by_key.get((bench, "hetero", 0.0))
        reun0 = by_key.get((bench, "reunion", 0.0))
        if het0 is None or reun0 is None:
            print(f"  systems: FAIL — {bench} missing an error-free hetero "
                  "or reunion cell")
            ok = False
            continue
        rel = het0["cycles"] / reun0["cycles"]
        verdict = "ok"
        if het0["cycles"] >= reun0["cycles"]:
            verdict = "FAIL (checker core costs more than fingerprint sync)"
            ok = False
        print(f"  systems overhead {bench}: hetero error-free cycles at "
              f"{rel:6.2%} of reunion's {verdict}")

    if not baseline_path:
        print("  (no --systems-baseline given; skipping exact cell gate)")
        return ok

    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read systems baseline {baseline_path}: {e}")
        sys.exit(2)
    if baseline.get("schema") != SYSTEMS_BASELINE_SCHEMA:
        print(f"error: {baseline_path} is not a "
              f"{SYSTEMS_BASELINE_SCHEMA} file")
        sys.exit(2)
    if (baseline.get("source_insts") != report.get("insts") or
            baseline.get("source_seed") != report.get("seed")):
        print(f"  systems: FAIL — report (insts={report.get('insts')}, "
              f"seed={report.get('seed')}) does not match the baseline's "
              f"grid (insts={baseline.get('source_insts')}, "
              f"seed={baseline.get('source_seed')})")
        return False

    current = {systems_cell_key(c): c for c in cells}
    mismatches = 0
    for key, want in sorted(baseline["cells"].items()):
        cell = current.get(key)
        if cell is None:
            print(f"  systems baseline {key}: MISSING from current report")
            ok = False
            continue
        for field, value in sorted(want.items()):
            if int(cell.get(field, -1)) != int(value):
                print(f"  systems baseline {key}.{field}: "
                      f"{cell.get(field)} != committed {value} FAIL "
                      "(exact integer equality required)")
                ok = False
                mismatches += 1
    uncovered = sorted(set(current) - set(baseline["cells"]))
    if uncovered:
        print(f"  systems baseline: {len(uncovered)} cell(s) have no "
              f"committed values (refresh with --write-systems-baseline): "
              f"{', '.join(uncovered[:5])}")
        ok = False
    if ok:
        print(f"  systems baseline: all {len(baseline['cells'])} cells "
              "exactly match")
    return ok


def write_systems_baseline(report, path):
    """Pin the exact per-cell integers of the six-architecture matrix.

    The simulation is deterministic, so for a fixed (insts, seed) grid
    every gated field is machine-independent and the gate is exact
    equality — any drift means an architecture model changed.
    """
    doc = {
        "schema": SYSTEMS_BASELINE_SCHEMA,
        "note": ("exact per-cell integers of the six-system comparison "
                 "matrix from bench_system_matrix; gate with "
                 "check_bench_regression.py --systems --systems-baseline"),
        "source_insts": report.get("insts"),
        "source_seed": report.get("seed"),
        "cells": {
            systems_cell_key(c): {f: int(c[f]) for f in SYSTEMS_GATED_FIELDS}
            for c in report["cells"]
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote systems baseline {path} ({len(doc['cells'])} cells)")


AVF_SCHEMA = "unsync.bench_avf.v1"
AVF_BASELINE_SCHEMA = "unsync.avf_baseline.v1"


def load_avf_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read avf report {path}: {e}")
        sys.exit(2)
    if report.get("schema") != AVF_SCHEMA:
        print(f"error: {path} is not a {AVF_SCHEMA} file")
        sys.exit(2)
    if not report.get("plans"):
        print(f"error: no plans in {path}")
        sys.exit(2)
    return report


def check_avf(report, baseline_path):
    """Gate the uncore protection-frontier report.

    The plans are ordered by increasing protection (none -> parity ->
    secded): residual AVF and SDC must never increase along the frontier,
    area/power must never decrease, any plan with full single-bit coverage
    must have zero SDC, and the per-structure bit-cycle integers must be
    identical across plans (protection joins at report time only) and
    exactly equal to the committed baseline.
    """
    ok = True
    plans = report["plans"]

    if report.get("identical") is not True:
        print("  avf: FAIL — bit-cycle counters differed across worker "
              "counts or plans (observation-only contract broken)")
        ok = False
    else:
        print("  avf: counters identical across worker counts and plans")

    for prev, cur in zip(plans, plans[1:]):
        pair = f"{prev['plan']} -> {cur['plan']}"
        if cur["total_residual_avf"] > prev["total_residual_avf"] + 1e-12:
            print(f"  avf: FAIL — residual AVF rose along {pair}")
            ok = False
        if cur["sdc"] > prev["sdc"]:
            print(f"  avf: FAIL — SDC count rose along {pair}")
            ok = False
        if (cur["area_delta_um2"] < prev["area_delta_um2"] - 1e-9 or
                cur["power_delta_w"] < prev["power_delta_w"] - 1e-12):
            print(f"  avf: FAIL — protection cost fell along {pair}")
            ok = False
    print(f"  avf: frontier monotone over {len(plans)} plans "
          f"({' -> '.join(p['plan'] for p in plans)})")

    for p in plans:
        if p["plan"] != "none" and p["sdc"] != 0:
            print(f"  avf: FAIL — plan {p['plan']} has {p['sdc']} silent "
                  "corruptions under full single-bit coverage")
            ok = False

    first = {s["structure"]: s["bit_cycles"]
             for s in plans[0]["structures"]}
    if len(first) < 6:
        print(f"  avf: FAIL — only {len(first)} uncore structures measured "
              "(expected >= 6)")
        ok = False
    for p in plans[1:]:
        for s in p["structures"]:
            if first.get(s["structure"]) != s["bit_cycles"]:
                print(f"  avf: FAIL — {s['structure']} bit_cycles differ "
                      f"between plans {plans[0]['plan']} and {p['plan']}")
                ok = False
    print(f"  avf: {len(first)} structures, bit-cycles equal across plans")

    if not baseline_path:
        print("  (no --avf-baseline given; skipping exact bit-cycle gate)")
        return ok

    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read avf baseline {baseline_path}: {e}")
        sys.exit(2)
    if baseline.get("schema") != AVF_BASELINE_SCHEMA:
        print(f"error: {baseline_path} is not a {AVF_BASELINE_SCHEMA} file")
        sys.exit(2)
    if (baseline.get("source_insts") != report.get("insts") or
            baseline.get("source_seed") != report.get("seed")):
        print(f"  avf: FAIL — report (insts={report.get('insts')}, "
              f"seed={report.get('seed')}) does not match the baseline's "
              f"grid (insts={baseline.get('source_insts')}, "
              f"seed={baseline.get('source_seed')})")
        return False
    for name, bits in sorted(baseline["bit_cycles"].items()):
        cur = first.get(name)
        if cur is None:
            print(f"  avf baseline {name}: MISSING from current report")
            ok = False
        elif cur != bits:
            print(f"  avf baseline {name}: bit_cycles {cur} != committed "
                  f"{bits} FAIL (exact integer equality required)")
            ok = False
    extra = sorted(set(first) - set(baseline["bit_cycles"]))
    if extra:
        print(f"  avf baseline: {len(extra)} structure(s) have no committed "
              f"value (refresh with --write-avf-baseline): "
              f"{', '.join(extra)}")
        ok = False
    if ok:
        print(f"  avf baseline: all {len(baseline['bit_cycles'])} "
              "structures exactly match")
    return ok


def write_avf_baseline(report, path):
    """Pin the exact per-structure ACE bit-cycle integers.

    The simulation is deterministic, so for a fixed (insts, seed) grid the
    integers are machine-independent and the gate is exact equality — any
    drift means the measurement (or a hook site) changed.
    """
    doc = {
        "schema": AVF_BASELINE_SCHEMA,
        "note": ("exact ACE bit-cycle integers per uncore structure from "
                 "bench_avf_frontier; gate with check_bench_regression.py "
                 "--avf --avf-baseline"),
        "source_insts": report.get("insts"),
        "source_seed": report.get("seed"),
        "bit_cycles": {s["structure"]: s["bit_cycles"]
                       for s in report["plans"][0]["structures"]},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote avf baseline {path} "
          f"({len(doc['bit_cycles'])} structures)")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("report", help="google-benchmark JSON (BENCH_sim.json) "
                    "or, with --campaign, a BENCH_campaign JSON")
    ap.add_argument("--baseline", help="committed BENCH_sim_baseline.json")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional drop vs baseline (default 0.10)")
    ap.add_argument("--ff-min-speedup", type=float, default=1.15,
                    help="required ff/naive speedup on galgel (default 1.15)")
    ap.add_argument("--campaign", action="store_true",
                    help="gate a bench_campaign_scaling JSON instead of a "
                    "google-benchmark report")
    ap.add_argument("--min-efficiency", type=float, default=0.85,
                    help="required parallel efficiency at the "
                    "gated point (default 0.85)")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write a fresh baseline from the report and exit")
    ap.add_argument("--prefix", action="store_true",
                    help="gate a bench_injection_prefix JSON instead of a "
                    "google-benchmark report")
    ap.add_argument("--min-prefix-speedup", type=float, default=3.0,
                    help="required prefix-sharing whole-grid speedup "
                    "(default 3.0)")
    ap.add_argument("--prefix-baseline", metavar="PATH",
                    help="committed BENCH_prefix_baseline.json (exact "
                    "engine counters)")
    ap.add_argument("--write-prefix-baseline", metavar="PATH",
                    help="with --prefix: pin the current engine counters "
                    "and exit")
    ap.add_argument("--systems", action="store_true",
                    help="gate a bench_system_matrix JSON instead of a "
                    "google-benchmark report")
    ap.add_argument("--systems-baseline", metavar="PATH",
                    help="committed BENCH_systems_baseline.json (exact "
                    "per-cell integers)")
    ap.add_argument("--write-systems-baseline", metavar="PATH",
                    help="with --systems: pin the current per-cell "
                    "integers and exit")
    ap.add_argument("--avf", action="store_true",
                    help="gate a bench_avf_frontier JSON instead of a "
                    "google-benchmark report")
    ap.add_argument("--avf-baseline", metavar="PATH",
                    help="committed BENCH_avf_baseline.json (exact "
                    "per-structure bit-cycle integers)")
    ap.add_argument("--write-avf-baseline", metavar="PATH",
                    help="with --avf: pin the current per-structure "
                    "bit-cycle integers and exit")
    args = ap.parse_args()

    if args.prefix:
        report = load_prefix_report(args.report)
        if args.write_prefix_baseline:
            write_prefix_baseline(report, args.write_prefix_baseline)
            return 0
        ok = check_prefix(report, args.min_prefix_speedup,
                          args.prefix_baseline)
        print("bench gate:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.systems:
        report = load_systems_report(args.report)
        if args.write_systems_baseline:
            write_systems_baseline(report, args.write_systems_baseline)
            return 0
        ok = check_systems(report, args.systems_baseline)
        print("bench gate:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.avf:
        report = load_avf_report(args.report)
        if args.write_avf_baseline:
            write_avf_baseline(report, args.write_avf_baseline)
            return 0
        ok = check_avf(report, args.avf_baseline)
        print("bench gate:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.campaign:
        ok = check_campaign(args.report, args.min_efficiency)
        print("bench gate:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    ips = load_report(args.report)
    if args.write_baseline:
        write_baseline(ips, args.write_baseline)
        return 0

    ok = check_ff_speedup(ips, args.ff_min_speedup)
    if args.baseline:
        ok = check_against_baseline(ips, args.baseline, args.tolerance) and ok
    else:
        print("  (no --baseline given; skipping absolute-throughput gate)")
    print("bench gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

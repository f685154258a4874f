#!/usr/bin/env python3
"""Generic gate for the CI bench reports.

    check_bench_regression.py REPORT BASELINE [--write-baseline]

REPORT is the "unsync.bench_report.v1" JSON a gated bench writes with its
json= knob:

    {"schema": "unsync.bench_report.v1", "bench": "<name>",
     "grid": {...}, "exact": {...}, "measured": {...}}

`grid` names the inputs every number is a function of, `exact` holds the
deterministic values the baseline pins, and `measured` holds raw
quantities (timings, margins, counts). A google-benchmark JSON from
bench_sim_throughput is accepted too and mapped onto a "sim" report (see
from_google_benchmark).

BASELINE is the committed bench/BENCH_<name>_baseline.json:

    {"schema": "unsync.bench_baseline.v2", "bench": "<name>",
     "grid": {...}, "exact": {...}, "min": {...}, "max": {...}}

Rules, each failure printed:
  grid   the report's grid equals the baseline's.
  exact  the report's exact map equals the baseline's: a changed, a
         missing and an extra key each fail.
  min    min[key] <= the report's value of key (exact or measured).
  max    the report's value of key <= max[key].
         A bounded key the report lacks fails.

--write-baseline rewrites the baseline's grid and exact from the report
and keeps its hand-set min and max, so policy bounds survive a refresh.

Exit codes: 0 pass, 1 a rule failed, 2 unreadable input, wrong schema or
malformed JSON.
"""

import argparse
import json
import os
import statistics
import sys

REPORT_SCHEMA = "unsync.bench_report.v1"
BASELINE_SCHEMA = "unsync.bench_baseline.v2"
SIM_CALIBRATION = "BM_SyntheticStream"
SIM_ENGINE = "BM_CycleEngine/"


class InputError(Exception):
    """The input cannot be read as a report or a baseline (exit 2)."""


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise InputError(f"cannot read {path}: {e}")


def from_google_benchmark(doc):
    """Maps bench_sim_throughput's google-benchmark JSON onto a "sim" report.

    measured["ff_speedup.<system>"] is BM_CycleEngine/<system>_ff over
    <system>_naive: run() against the reference run_naive() loop, same run
    and host. measured["BM_CycleEngine/<variant>"] is the variant's
    cycles/s divided by the BM_SyntheticStream calibration from the same
    run, which takes out raw host speed. A benchmark run with repetitions
    counts as the median of its repetitions.
    """
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "aggregate" and "items_per_second" in b:
            runs.setdefault(b.get("run_name", b["name"]), []).append(
                float(b["items_per_second"]))
    ips = {name: statistics.median(v) for name, v in runs.items()}
    calibration = ips.get(SIM_CALIBRATION)
    if not calibration:
        raise InputError(f"{SIM_CALIBRATION} (the calibration) is missing "
                         "from the google-benchmark report")
    measured = {}
    for name, value in ips.items():
        if not name.startswith(SIM_ENGINE):
            continue
        measured[name] = value / calibration
        system = name[len(SIM_ENGINE):].removesuffix("_naive")
        ff = ips.get(f"{SIM_ENGINE}{system}_ff")
        if name.endswith("_naive") and ff:
            measured[f"ff_speedup.{system}"] = ff / value
    return {"schema": REPORT_SCHEMA, "bench": "sim", "grid": {},
            "exact": {}, "measured": measured}


def load_report(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path} is not a JSON object")
    if "schema" not in doc and "benchmarks" in doc:
        doc = from_google_benchmark(doc)
    return checked(doc, path, REPORT_SCHEMA, ("grid", "exact", "measured"))


def load_baseline(path):
    doc = checked(load_json(path), path, BASELINE_SCHEMA,
                  ("grid", "exact", "min", "max"))
    for rule in ("min", "max"):
        if not all(map(is_number, doc[rule].values())):
            raise InputError(f"{path} has a non-numeric {rule} bound")
    return doc


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def checked(doc, path, schema, sections):
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise InputError(f"{path} is not a {schema} file")
    if not isinstance(doc.get("bench"), str):
        raise InputError(f"{path} names no bench")
    for s in sections:
        if not isinstance(doc.get(s), dict):
            raise InputError(f"{path} has no '{s}' object")
    return doc


def check(report, baseline):
    """Applies the four rules; returns the list of failure lines."""
    failures = []
    if report["grid"] != baseline["grid"]:
        failures.append(f"grid {json.dumps(report['grid'], sort_keys=True)} "
                        "!= baseline grid "
                        f"{json.dumps(baseline['grid'], sort_keys=True)}")

    got, want = report["exact"], baseline["exact"]
    for key in sorted(set(got) | set(want)):
        if key not in got:
            failures.append(f"exact {key}: missing from the report "
                            f"(baseline {want[key]!r})")
        elif key not in want:
            failures.append(f"exact {key}: {got[key]!r} is not in the "
                            "baseline (refresh with --write-baseline)")
        elif got[key] != want[key]:
            failures.append(f"exact {key}: {got[key]!r} != baseline "
                            f"{want[key]!r}")
    print(f"  exact: {len(want)} baseline keys, "
          f"{sum(k in got and got[k] == v for k, v in want.items())} "
          "match")

    values = {**report["measured"], **report["exact"]}
    for rule, bounds in (("min", baseline["min"]), ("max", baseline["max"])):
        for key, bound in sorted(bounds.items()):
            value = values.get(key)
            if not is_number(value):
                failures.append(f"{rule} {key}: no numeric value in the "
                                f"report (got {value!r})")
                continue
            ok = value >= bound if rule == "min" else value <= bound
            sign = ">=" if rule == "min" else "<="
            print(f"  {key} = {value:.6g} {sign} {bound:.6g} "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{rule} {key}: {value:.6g} is not "
                                f"{sign} {bound:.6g}")
    return failures


def write_baseline(report, path):
    """Rewrites grid and exact from the report; keeps min and max."""
    baseline = load_baseline(path) if os.path.exists(path) else {
        "schema": BASELINE_SCHEMA, "bench": report["bench"],
        "min": {}, "max": {}}
    if baseline["bench"] != report["bench"]:
        raise InputError(f"{path} is the {baseline['bench']} baseline, "
                         f"not {report['bench']}")
    sections = {"grid": report["grid"], "exact": report["exact"],
                "min": baseline["min"], "max": baseline["max"]}
    doc = {"schema": BASELINE_SCHEMA, "bench": report["bench"],
           **{k: dict(sorted(v.items())) for k, v in sections.items()}}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {path}: {len(report['exact'])} exact keys; kept "
          f"{len(baseline['min'])} min and {len(baseline['max'])} max "
          "bounds")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("report", help="a bench report (or google-benchmark "
                    "JSON from bench_sim_throughput)")
    ap.add_argument("baseline", help="the committed "
                    "bench/BENCH_<bench>_baseline.json")
    ap.add_argument("--write-baseline", action="store_true",
                    help="refresh the baseline's grid and exact from the "
                    "report, keeping its min and max")
    args = ap.parse_args()

    try:
        report = load_report(args.report)
        if args.write_baseline:
            write_baseline(report, args.baseline)
            return 0
        baseline = load_baseline(args.baseline)
        if report["bench"] != baseline["bench"]:
            raise InputError(f"report is bench {report['bench']!r}, "
                             f"baseline is {baseline['bench']!r}")
    except InputError as e:
        print(f"error: {e}")
        return 2

    print(f"bench gate {report['bench']}: {args.report} vs {args.baseline}")
    failures = check(report, baseline)
    for line in failures:
        print(f"  FAIL {line}")
    print(f"bench gate {report['bench']}:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

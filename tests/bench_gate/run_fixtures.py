#!/usr/bin/env python3
"""Runs tools/check_bench_regression.py over the fixtures in this directory
and checks every exit code.

Per gate (sim, campaign, prefix, systems, avf): a copy of the committed
bench/BENCH_<gate>_baseline.json is refreshed from <gate>_pass.json with
--write-baseline, which must keep the committed min/max bounds; then
<gate>_pass.json must pass (exit 0) and <gate>_fail.json must fail (exit 1)
against those bounds. campaign_fail.json is what a serialised scheduler
gives: efficiency 0.25 at workers=4.

Per rule: rules_<rule>.json must fail rules_baseline.json, and
rules_pass.json pass it. Unreadable input, a wrong schema and malformed
JSON must exit 2.

    python3 tests/bench_gate/run_fixtures.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHECKER = os.path.join(ROOT, "tools", "check_bench_regression.py")
GATES = ("sim", "campaign", "prefix", "systems", "avf")
RULES = ("exact_mismatch", "exact_missing", "exact_extra", "min", "max",
         "grid")


def fixture(name):
    return os.path.join(HERE, name)


def main():
    failures = []

    def expect(code, report, baseline, *extra):
        run = subprocess.run([sys.executable, CHECKER, report, baseline,
                              *extra], stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        # A crash also exits 1; only a rule failure counts as a failure.
        if run.returncode != code or "Traceback" in run.stdout:
            failures.append(f"{os.path.basename(report)} vs "
                            f"{os.path.basename(baseline)}: exit "
                            f"{run.returncode}, want {code}\n{run.stdout}")

    with tempfile.TemporaryDirectory() as tmp:
        for gate in GATES:
            committed = os.path.join(ROOT, "bench",
                                     f"BENCH_{gate}_baseline.json")
            baseline = os.path.join(tmp, os.path.basename(committed))
            shutil.copy(committed, baseline)
            expect(0, fixture(f"{gate}_pass.json"), baseline,
                   "--write-baseline")
            with open(committed) as a, open(baseline) as b:
                old, new = json.load(a), json.load(b)
            if (old["min"], old["max"]) != (new["min"], new["max"]):
                failures.append(f"--write-baseline changed the {gate} "
                                "min/max bounds")
            expect(0, fixture(f"{gate}_pass.json"), baseline)
            expect(1, fixture(f"{gate}_fail.json"), baseline)

    rules = fixture("rules_baseline.json")
    expect(0, fixture("rules_pass.json"), rules)
    for rule in RULES:
        expect(1, fixture(f"rules_{rule}.json"), rules)
    for bad in ("no_such_report.json", "bad_schema.json", "malformed.json"):
        expect(2, fixture(bad), rules)
    expect(2, fixture("rules_pass.json"), fixture("no_such_baseline.json"))
    expect(2, fixture("rules_pass.json"), fixture("bad_schema.json"))

    for line in failures:
        print(f"FAIL {line}")
    print("bench gate fixtures:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

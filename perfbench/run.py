#!/usr/bin/env python3
"""Builds and runs the perfbench driver from the repository root.

    python3 perfbench/run.py --workload <long_run|mc_short|inject_prefix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --gen-digests

The simulator libraries and the driver are compiled from source into
$CARGO_TARGET_DIR (default .bench_build) under the current directory; build
output goes to stderr so the driver's last stdout line stays the result
object. Spans, summaries and scratch journals go to .bench_out/. Exits 2
without a result when the simulator sources are not present.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.join(HERE, "..")
REFERENCE = os.path.join(HERE, "reference")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--gen-digests", action="store_true",
                    help="regenerate reference/*.digests from this tree")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.gen_digests):
        ap.error("--workload is required")
    if args.workload and not (args.seed and args.seconds):
        ap.error("--seed and --seconds are required with --workload")

    build_dir = build()
    if args.self_test:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    elif args.gen_digests:
        cmd = [os.path.join(build_dir, "perfbench_driver"),
               "--gen-digests", REFERENCE]
    else:
        cmd = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--reference", REFERENCE, "--out", ".bench_out"]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

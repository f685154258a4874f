#!/bin/sh
# CLI gate (ctest: cli_bench_example_bad_knob_exit2): a malformed or
# out-of-range knob makes a bench or an example print the error and exit 2,
# as unsync_sim does, instead of aborting on an uncaught ConfigError.
# Every call runs under its own timeout, so a knob that is accepted and
# runs fails here instead of stalling the suite.
#
# usage: sh tests/cli_bench_example_bad_knob.sh <spec_campaign> \
#            <bench_fig6_cb_size> <quickstart> <checkpoint_resume> \
#            <design_explorer>
set -u

failed=0

# Expect exit 2 from the given command line.
expect2() {
  timeout 30 "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: expected exit 2, got $rc: $*" >&2
    failed=1
  fi
}

expect2 "$1" insts=abc
expect2 "$1" threads=-1
expect2 "$2" threads=0
expect2 "$2" insts=12x
expect2 "$3" ser=1.5
expect2 "$4" ser=nan
expect2 "$5" bench=doom

exit "$failed"

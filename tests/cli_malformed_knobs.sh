#!/bin/sh
# CLI gate (ctest: cli_malformed_knobs_exit2): a malformed or out-of-range
# integer value must make unsync_sim exit 2 (configuration error) on run,
# on every sweep point and on every campaign job. A value is parsed whole
# (cb=12x is not cb=12) and must fit its field without wrapping (cb=-1 is
# not a CB of 2^64-1 entries; insts=-5 is not a stream of 2^64-5
# instructions that never finishes). Every call runs under its own timeout,
# so a wrapped value that hangs fails here instead of stalling the suite.
#
# usage: sh tests/cli_malformed_knobs.sh path/to/unsync_sim
set -u

SIM="$1"
W="system=unsync bench=gzip insts=2000"
failed=0

# Expect exit 2 from unsync_sim with the given arguments.
expect2() {
  timeout 30 "$SIM" "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: expected exit 2, got $rc: unsync_sim $*" >&2
    failed=1
  fi
}

for args in "cb=12x" "insts=abc" "insts=-5" "group=4294967298" "cb=-1" \
    "system=checkpoint interval=-1" "threads=0" "ser=1e-3x" "ser=-1" \
    "ser=1.5"; do
  # shellcheck disable=SC2086  # $W and $args are word lists
  expect2 run $W $args
done

for args in "values=abc" "values=8,,16" "values=12x" "values=-1"; do
  # shellcheck disable=SC2086
  expect2 sweep $W param=cb $args threads=1
done
expect2 sweep $W param=group values=4294967298 threads=1
expect2 sweep $W param=ser values=1e-4,1.5 threads=1

for args in "app_threads=0" "insts=2000x" "cb=-1" "seed=-3" "ser=-1"; do
  # shellcheck disable=SC2086
  expect2 campaign systems=unsync benches=gzip insts=2000 csv=1 threads=1 \
    $args
done

# ser is a per-instruction probability: finite and in [0, 1]. Every front
# end that takes it refuses the rest before any job runs.
G="systems=unsync benches=gzip insts=2000"
D="${TMPDIR:-/tmp}/cli_malformed_knobs.$$"
expect2 avf-report $G ser=1.5 threads=1
expect2 campaign-worker $G ser=1.5 dir="$D" workers=1 worker=0
expect2 campaign-coordinator $G ser=1.5 dir="$D" workers=1 timeout=5
rm -rf "$D"

# A NaN or infinite rate made the arrival draw allocate without end, so
# these run under a memory cap: a build that accepts them fails with a
# bad_alloc (exit 1) instead of exhausting the host.
for args in "ser=inf" "ser=nan" "ser=1e300"; do
  # shellcheck disable=SC2086
  (ulimit -v 1000000; expect2 run $W $args; exit "$failed") || failed=1
done

exit "$failed"

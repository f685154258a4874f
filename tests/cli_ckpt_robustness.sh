#!/usr/bin/env bash
# CLI robustness gate (ctest: cli_ckpt_robustness): corrupt "unsync.ckpt.v1"
# checkpoint containers and campaign journals must make unsync_sim exit 2
# (configuration error) — never crash and never succeed silently. Pairs with
# the in-process CkptFuzz suite in test_ckpt.cpp, which sweeps many more
# corruption points; this script pins the exit-code contract end to end.
set -u

SIM="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# Expect exit code $1 from the command in the remaining args.
expect_rc() {
  local want="$1"
  shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    fail "expected exit $want, got $got: $*"
  fi
}

RUN_ARGS=(run system=unsync bench=gzip insts=4000 ser=1e-5)

# A healthy save/resume cycle works.
expect_rc 0 "$SIM" "${RUN_ARGS[@]}" checkpoint="$DIR/snap.ckpt" \
  checkpoint_at=1000
expect_rc 0 "$SIM" "${RUN_ARGS[@]}" resume="$DIR/snap.ckpt"

SIZE=$(wc -c < "$DIR/snap.ckpt")

# Truncated container (mid-payload and mid-header) -> exit 2.
head -c $((SIZE / 2)) "$DIR/snap.ckpt" > "$DIR/trunc.ckpt"
expect_rc 2 "$SIM" "${RUN_ARGS[@]}" resume="$DIR/trunc.ckpt"
head -c 11 "$DIR/snap.ckpt" > "$DIR/header.ckpt"
expect_rc 2 "$SIM" "${RUN_ARGS[@]}" resume="$DIR/header.ckpt"

# Trailing garbage -> advertised-length mismatch -> exit 2.
cat "$DIR/snap.ckpt" > "$DIR/trail.ckpt"
printf 'junk' >> "$DIR/trail.ckpt"
expect_rc 2 "$SIM" "${RUN_ARGS[@]}" resume="$DIR/trail.ckpt"

# Not a checkpoint container at all -> bad magic -> exit 2.
echo "this is not a checkpoint" > "$DIR/bad.ckpt"
expect_rc 2 "$SIM" "${RUN_ARGS[@]}" resume="$DIR/bad.ckpt"

# A CRC-valid container whose element count is absurd (the first MSHR
# file's in-flight count, patched, then the container re-signed) -> exit 2,
# not an allocation failure.
for COUNT in 4611686018427387904 17179869184; do
  python3 - "$DIR/snap.ckpt" "$DIR/count.ckpt" "$COUNT" <<'PY' ||
import struct, sys, zlib
src, dst, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
blob = open(src, "rb").read()
# magic (8), schema length (u64) + schema, payload length (u64), CRC (u32)
crc_at = 16 + struct.unpack_from("<Q", blob, 8)[0] + 8
payload = bytearray(blob[crc_at + 4:])
at = payload.index(b"MSHR") + 4 + 8 + 4  # tag, chunk length, capacity
struct.pack_into("<Q", payload, at, count)
crc = struct.pack("<I", zlib.crc32(payload))
open(dst, "wb").write(blob[:crc_at] + crc + bytes(payload))
PY
    fail "cannot patch the element count"
  expect_rc 2 "$SIM" "${RUN_ARGS[@]}" resume="$DIR/count.ckpt"
done

# Campaign journals: a complete journal is healthy (exit 0), a torn one
# reports corrupt lines with exit 2 — including under prefix-sharing, whose
# trailing stats line must parse cleanly too.
CAMPAIGN=(campaign systems=baseline,unsync benches=gzip insts=3000 ser=1e-5
  csv=1 prefix_share=1 prefix_interval=1500)
expect_rc 0 "$SIM" "${CAMPAIGN[@]}" checkpoint="$DIR/j.jsonl"
expect_rc 0 "$SIM" campaign status journal="$DIR/j.jsonl"

JSIZE=$(wc -c < "$DIR/j.jsonl")
head -c $((JSIZE - 5)) "$DIR/j.jsonl" > "$DIR/torn.jsonl"
expect_rc 2 "$SIM" campaign status journal="$DIR/torn.jsonl"

# A journal header is read before any entry, so its own "jobs" count must
# never size an allocation: a count of 2^62 is a (pending) campaign that
# exits 0, and a count with more digits than a u64 holds is no header at
# all (exit 2), never a wrapped value. Only counts that allocate nothing
# are used here.
HEAD='{"schema":"unsync.campaign_journal.v1","campaign_seed":42,"jobs":'
TAIL=',"grid_crc":1,"collect_metrics":false}'
echo "${HEAD}4611686018427387904${TAIL}" > "$DIR/huge.jsonl"
expect_rc 0 "$SIM" campaign status journal="$DIR/huge.jsonl"
"$SIM" campaign status journal="$DIR/huge.jsonl" 2>/dev/null |
  grep -q '^pending: *4611686018427387904$' ||
  fail "campaign status does not print the pending count of a 2^62-job header"
echo "${HEAD}12345678901234567890123${TAIL}" > "$DIR/overflow.jsonl"
expect_rc 2 "$SIM" campaign status journal="$DIR/overflow.jsonl"

# An entry whose index was flipped onto another job carries that job's
# label: status counts it as corrupt (exit 2), since resume drops and
# re-runs it. A re-run of a job repeats its label and seed: a duplicate,
# still healthy (exit 0).
FLIP=(campaign systems=baseline benches=gzip,mcf,galgel insts=2000 threads=1
  csv=1)
expect_rc 0 "$SIM" "${FLIP[@]}" checkpoint="$DIR/flip.jsonl"
sed 's/^{"index":2,/{"index":0,/' "$DIR/flip.jsonl" > "$DIR/flipped.jsonl"
cmp -s "$DIR/flip.jsonl" "$DIR/flipped.jsonl" && fail "no entry was flipped"
expect_rc 2 "$SIM" campaign status journal="$DIR/flipped.jsonl"
"$SIM" campaign status journal="$DIR/flipped.jsonl" 2>/dev/null |
  tr -s ' ' | grep -c -E '^(done: 2|duplicates: 0|corrupt: 1)$' |
  grep -q '^3$' ||
  fail "campaign status counts a flipped index as a duplicate"
{ cat "$DIR/flip.jsonl"; grep '^{"index":0,' "$DIR/flip.jsonl"; } \
  > "$DIR/rerun.jsonl"
expect_rc 0 "$SIM" campaign status journal="$DIR/rerun.jsonl"
"$SIM" campaign status journal="$DIR/rerun.jsonl" 2>/dev/null |
  tr -s ' ' | grep -q '^duplicates: 1$' ||
  fail "campaign status does not count a re-run entry as a duplicate"

echo "cli_ckpt_robustness: OK"

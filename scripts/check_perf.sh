#!/usr/bin/env bash
# check_perf.sh — CI sanity check of the perf harness. Runs
# scripts/bench_json.sh and validates the JSON it emits:
#   * both files exist, are non-empty, and carry the expected fields;
#   * the event core performs no allocations per event and is faster
#     than the legacy core (conservative 1.3x floor: CI hosts are noisy;
#     the bench itself reports ~2x on a quiet machine);
#   * chunked claiming at K=8 cuts per-iteration overhead at least 4x
#     (virtual-time measurement, so this one is deterministic).
#
# Usage: check_perf.sh <bench-bindir> [workdir]

set -euo pipefail

BINDIR=${1:?usage: check_perf.sh <bench-bindir> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
SCRIPTDIR=$(dirname "$0")

fail() {
  echo "check_perf.sh: FAIL: $1" >&2
  exit 1
}

# Field extractor: prints the first numeric value of "key": <num> or
# nothing. One awk process, no pipeline — the old sed|head pair would
# trip pipefail whenever head closed the pipe on a multi-match file.
field() {
  awk -v key="$2" '
    {
      if (match($0, "\"" key "\"[[:space:]]*:[[:space:]]*")) {
        rest = substr($0, RSTART + RLENGTH)
        if (match(rest, /^-?[0-9][0-9.]*/)) {
          print substr(rest, RSTART, RLENGTH)
          exit
        }
      }
    }' "$1"
}

# At least: awk-based float compare.
at_least() {
  awk -v a="$1" -v b="$2" 'BEGIN { exit (a+0 >= b+0) ? 0 : 1 }'
}

bash "$SCRIPTDIR/bench_json.sh" "$BINDIR" "$WORKDIR" ||
  fail "bench_json.sh exited non-zero"

SIMCORE="$WORKDIR/BENCH_simcore.json"
OVERHEADS="$WORKDIR/BENCH_overheads.json"
[ -s "$SIMCORE" ] || fail "missing or empty $SIMCORE"
[ -s "$OVERHEADS" ] || fail "missing or empty $OVERHEADS"

# --- simcore ----------------------------------------------------------
for KEY in events_per_sec_legacy events_per_sec_current speedup \
           allocs_per_event_legacy allocs_per_event_current; do
  V=$(field "$SIMCORE" "$KEY")
  [ -n "$V" ] || fail "simcore JSON lacks $KEY"
done
SPEEDUP=$(field "$SIMCORE" speedup)
at_least "$SPEEDUP" 1.3 ||
  fail "sim core speedup $SPEEDUP below the 1.3x CI floor"
ALLOCS=$(field "$SIMCORE" allocs_per_event_current)
at_least 0.01 "$ALLOCS" ||
  fail "event core allocates per event ($ALLOCS)"

# --- overheads --------------------------------------------------------
for KEY in reduction_k8 reduction_k32 hook_cost; do
  V=$(field "$OVERHEADS" "$KEY")
  [ -n "$V" ] || fail "overheads JSON lacks $KEY"
done
grep -q '"chunk_runs"' "$OVERHEADS" || fail "overheads JSON lacks chunk_runs"
RED8=$(field "$OVERHEADS" reduction_k8)
at_least "$RED8" 4.0 ||
  fail "chunking reduction at K=8 is ${RED8}x, expected >= 4x"

echo "check_perf.sh: OK (speedup ${SPEEDUP}x, K=8 reduction ${RED8}x)"

#!/usr/bin/env bash
# check_serve.sh — end-to-end validation of the open-loop serving layer
# (arrival generation, admission control, and SLO-driven budget
# arbitration) on bench_serve's three-phase scenario.
#
# Sweeps three seeds, running each seed twice, and asserts:
#   * the bench's own verdict passes (SERVE: OK — zero SLO violations in
#     the under-load phase, the overload phase sheds load while goodput
#     stays >= 80% of under-load instead of collapsing, budget flowed
#     toward the violating class, and the run drains);
#   * determinism — the two runs' stdout and Chrome traces are
#     byte-identical (seeded arrivals on virtual time => same world);
#   * the table shows the load story directly: no under-load violations
#     for either class, and non-zero shedding in the api overload row;
#   * the trace shows the arbitration story: repartition instants and
#     slo_transfer instants, with admission + transfer counters in the
#     metrics dump.
#
# In batch mode the same sweep runs `bench_serve --batch` (the A/B:
# unbatched baseline then batched dispatch at the same seed) and
# additionally asserts:
#   * the bench's batch verdict passes (BATCH: OK — per-request latency
#     attributed from inside batches, spin-up amortized, drained);
#   * determinism of the full A/B output (both runs byte-identical);
#   * the goodput landmark: batched overload goodput >= 1.3x the
#     unbatched baseline at the same seed;
#   * the low-load landmark: the batched run's under-load api p50 stays
#     within 1.25x of the unbatched run's (dispatch is work-conserving,
#     so an idle class never holds a request back to fill a batch);
#   * the trace carries batch_close instants (the coalescing story).
#
# Usage: check_serve.sh <path-to-bench_serve> [workdir] [legacy|batch]

set -euo pipefail

BENCH=${1:?usage: check_serve.sh <bench_serve> [workdir] [legacy|batch]}
WORKDIR=${2:-$(mktemp -d)}
MODE=${3:-legacy}
mkdir -p "$WORKDIR"
PREFIX=serve
. "$(dirname "$0")/check_lib.sh"
FLAGS=()
[ "$MODE" = batch ] && FLAGS=(--batch)

for S in 7 21 42; do
  twice "$S" "$S" 'SERVE: OK' "${FLAGS[@]}"

  OUT="$WORKDIR/serve.$S.1.out"

  if [ "$MODE" = batch ]; then
    grep -q '^BATCH: OK$' "$OUT" ||
      fail "seed $S: batch verdict failed (no BATCH: OK)"
    # The goodput landmark: the bench prints the A/B speedup and its own
    # verdict gates it at 1.3x; assert the landmark line is present (and
    # not 0.xx) so a silent report regression cannot pass.
    grep -Eq 'batch goodput speedup: [1-9][0-9]*\.[0-9]+x' "$OUT" ||
      fail "seed $S: no batch goodput speedup landmark"
    # The low-load landmark: batched under-load api p50 over unbatched.
    RATIO=$(sed -nE \
      's/^ +api under-load p50: .*\(([0-9.]+)x of unbatched.*/\1/p' "$OUT")
    [ -n "$RATIO" ] || fail "seed $S: no under-load p50 landmark"
    awk -v R="$RATIO" 'BEGIN { exit (R > 0 && R <= 1.25) ? 0 : 1 }' ||
      fail "seed $S: batched under-load api p50 is ${RATIO}x unbatched (> 1.25x)"
    # Spin-up amortization: more than one request per region on average.
    grep -Eq 'api   regions: [0-9]+ -> [0-9]+ \([2-9]' "$OUT" ||
      fail "seed $S: api batches did not amortize regions"
  fi

  # Zero SLO violations in the under-load phase, for both classes (the
  # viol column is the last field of each table row).
  for CLS in api batch; do
    grep -Eq "^ ${CLS}[[:space:]]+\| under[[:space:]]+\|.*\|[[:space:]]+0\$" \
      "$OUT" || fail "seed $S: $CLS under-load row shows SLO violations"
  done
  # The overload phase sheds rather than queueing without bound: a
  # non-zero shed count in the api overload row (4th numeric column).
  grep -E '^ api[[:space:]]+\| overload' "$OUT" |
    awk -F'|' '{ split($3, F, " "); exit F[4] > 0 ? 0 : 1 }' ||
    fail "seed $S: api overload row shed nothing"
  # Budget moved toward the violating class under overload.
  grep -Eq 'slo timeline: [1-9][0-9]* transfer\(s\), [1-9][0-9]* toward api' \
    "$OUT" || fail "seed $S: no SLO transfer toward the api class"
done

TRACE="$WORKDIR/serve.42.1.trace.json"
[ -s "$TRACE" ] || fail "trace file missing or empty: $TRACE"

# The arbitration story, in trace landmarks: the daemon repartitions as
# tenants register and rebalance, and the SLO pass records its moves.
grep -q '"repartition"' "$TRACE" || fail "no repartition instant in trace"
grep -q '"slo_transfer"' "$TRACE" || fail "no slo_transfer instant in trace"

# Batch mode: coalescing leaves batch_close instants in the trace.
if [ "$MODE" = batch ]; then
  grep -q '"batch_close"' "$TRACE" || fail "no batch_close instant in trace"
fi

# Admission + arbitration metrics land in the metrics dump.
METRICS="$TRACE.metrics.txt"
[ -s "$METRICS" ] || fail "metrics dump missing: $METRICS"
grep -q 'serve\.admitted' "$METRICS" || fail "no admitted counter"
grep -q 'serve\.rejected' "$METRICS" || fail "no rejected counter"
grep -q 'serve\.shed' "$METRICS" || fail "no shed counter"
grep -q 'platform\.slo_transfers' "$METRICS" || fail "no transfer counter"

echo "check_serve.sh: OK ($WORKDIR)"

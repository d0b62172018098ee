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
#   * the SLO timeline's per-phase transfer counts add up to its total,
#     on every run the output prints;
#   * every such timeline reports how many transfers a backlogged class
#     took while meeting its SLO (`K by backlog`), with K at most the
#     total;
#   * every such timeline sends all its transfers toward api: threads
#     flow only toward the tighter target, so the looser batch class has
#     no donor;
#   * every run the output prints reports the threads each class's
#     runners hold at phase ends, beside its budgets;
#   * the trace shows the arbitration story: repartition instants and
#     slo_transfer instants, each naming its reason (violation or
#     backlog), with admission + transfer counters in the metrics dump.
#
# In batch mode the same sweep runs `bench_serve --batch` (the A/B:
# unbatched baseline then batched dispatch at the same seed) and
# additionally asserts:
#   * the bench's batch verdict passes (BATCH: OK — per-request latency
#     attributed from inside batches, spin-up amortized, drained);
#   * spin-up amortized: the api regions line reports at least 2
#     requests per region;
#   * warm refill happened: the api regions line reports a positive count
#     of batches taken in place by runners whose work ran dry;
#   * parking happened: the same line reports a positive count of batches
#     taken by parked runners a dispatch woke;
#   * stealing happened: the same line reports a positive count of steals
#     by runners whose work ran dry with nothing queued, moving a positive
#     count of requests;
#   * determinism of the full A/B output (both runs byte-identical);
#   * the goodput landmark: batched overload goodput >= 1.3x the
#     unbatched baseline at the same seed;
#   * the low-load landmark: the batched run's under-load api p50 is at
#     most 0.8x the unbatched run's (dispatch is work-conserving, so an
#     idle class never holds a request back to fill a batch, and a woken
#     parked runner serves it without spin-up);
#   * the trace carries batch_close instants (the coalescing story), and
#     steal instants, every one of which moves at least one member.
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
    awk -v R="$RATIO" 'BEGIN { exit (R > 0 && R <= 0.8) ? 0 : 1 }' ||
      fail "seed $S: batched under-load api p50 is ${RATIO}x unbatched (> 0.8x)"
    # Spin-up amortization: at least two requests per region on average.
    PER=$(sed -nE \
      's/^ +api +regions: [0-9]+ -> [0-9]+ \(([0-9.]+) req\/region.*/\1/p' "$OUT")
    [ -n "$PER" ] || fail "seed $S: no api regions line"
    awk -v P="$PER" 'BEGIN { exit (P >= 2) ? 0 : 1 }' ||
      fail "seed $S: api batches did not amortize regions ($PER req/region)"
    # Warm refill: api runners took queued batches in place.
    grep -Eq 'api   regions: .* req/region, [1-9][0-9]* batches in place,' \
      "$OUT" || fail "seed $S: no api batch was taken in place"
    # Parking: parked api runners woke to take queued batches.
    grep -Eq 'api   regions: .* [1-9][0-9]* by parked runners;' "$OUT" ||
      fail "seed $S: no parked api runner woke"
    # Stealing: dry api runners took unclaimed members from siblings.
    grep -Eq 'api   regions: .*; [1-9][0-9]* steals moved [1-9][0-9]* requests;' \
      "$OUT" || fail "seed $S: no api runner stole"
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
  # Every transfer lands in exactly one phase (batch mode prints two
  # timelines; each must add up).
  sed -nE 's/.*slo timeline: ([0-9]+) transfer\(s\),.* by phase: under ([0-9]+), overload ([0-9]+), recovery ([0-9]+).*/\1 \2 \3 \4/p' \
    "$OUT" | awk 'NF == 4 && $1 == $2 + $3 + $4 { ok++ } END { exit (NR > 0 && ok == NR) ? 0 : 1 }' ||
    fail "seed $S: SLO timeline phase counts do not sum to its total"
  # Every timeline splits out the transfers taken by backlog, and no more
  # of them than its total.
  NT=$(grep -c 'slo timeline:' "$OUT" || true)
  sed -nE 's/.*slo timeline: ([0-9]+) transfer\(s\), [0-9]+ toward api, ([0-9]+) by backlog;.*/\1 \2/p' \
    "$OUT" | awk -v n="$NT" '$2 <= $1 { ok++ } END { exit (n > 0 && ok == n) ? 0 : 1 }' ||
    fail "seed $S: an SLO timeline lacks a backlog count at most its total"
  # Deadline-monotonic: with two classes the looser batch class has no
  # donor, so every transfer goes toward api.
  sed -nE 's/.*slo timeline: ([0-9]+) transfer\(s\), ([0-9]+) toward api,.*/\1 \2/p' \
    "$OUT" | awk -v n="$NT" '$1 == $2 { ok++ } END { exit (n > 0 && ok == n) ? 0 : 1 }' ||
    fail "seed $S: an SLO timeline has a transfer toward the batch class"
  # Each budgets line has its threads-held line (batch mode prints two).
  NB=$(grep -c 'budgets at phase ends:' "$OUT" || true)
  NH=$(grep -Ec '^   threads held at phase ends: api [0-9]+/[0-9]+/[0-9]+, batch [0-9]+/[0-9]+/[0-9]+$' \
    "$OUT" || true)
  [ "$NB" -gt 0 ] && [ "$NH" -eq "$NB" ] ||
    fail "seed $S: $NH threads-held line(s) for $NB budget line(s)"
done

TRACE="$WORKDIR/serve.42.1.trace.json"
[ -s "$TRACE" ] || fail "trace file missing or empty: $TRACE"

# The arbitration story, in trace landmarks: the daemon repartitions as
# tenants register and rebalance, and the SLO pass records its moves.
grep -q '"repartition"' "$TRACE" || fail "no repartition instant in trace"
grep -q '"slo_transfer"' "$TRACE" || fail "no slo_transfer instant in trace"
# Each transfer instant says why the thread moved.
grep -o '"name":"slo_transfer"[^}]*}' "$TRACE" |
  awk '!/"why":"(violation|backlog)"/ { bad++ } END { exit (NR > 0 && !bad) ? 0 : 1 }' ||
  fail "an slo_transfer instant carries no violation/backlog reason"

# Batch mode: coalescing leaves batch_close instants in the trace, and
# stealing leaves steal instants, each moving at least one member.
if [ "$MODE" = batch ]; then
  grep -q '"batch_close"' "$TRACE" || fail "no batch_close instant in trace"
  grep -o '"name":"steal"[^}]*}' "$TRACE" |
    awk '!/"members":[1-9]/ { bad++ } END { exit (NR > 0 && !bad) ? 0 : 1 }' ||
    fail "no steal instant in trace, or one that moves no member"
fi

# Admission + arbitration metrics land in the metrics dump.
METRICS="$TRACE.metrics.txt"
[ -s "$METRICS" ] || fail "metrics dump missing: $METRICS"
grep -q 'serve\.admitted' "$METRICS" || fail "no admitted counter"
grep -q 'serve\.rejected' "$METRICS" || fail "no rejected counter"
grep -q 'serve\.shed' "$METRICS" || fail "no shed counter"
grep -q 'platform\.slo_transfers' "$METRICS" || fail "no transfer counter"

echo "check_serve.sh: OK ($WORKDIR)"

#!/usr/bin/env bash
# check_resilience.sh — end-to-end validation of the fault model and
# Morta's failure recovery.
#
# legacy mode: runs bench_resilience twice with a fixed seed and asserts:
#   * the run recovers (RESILIENCE: OK — complete, ordered output after
#     two core failures, a straggler window, and transient task faults);
#   * determinism — the two runs' stdout and Chrome traces are
#     byte-identical (same seed => same event sequence);
#   * the trace shows the recovery story: fault injection, watchdog
#     detection, and the pause/reconfigure/resume of the degraded run.
#
# burst mode: sweeps the correlated-domain + repair scenario (--burst)
# over three seeds, running each seed twice, and asserts:
#   * recovery plus byte-identical reruns per seed;
#   * the thread budget both shrank (on the domain event) and grew back
#     (after repair) — non-zero transitions in both directions;
#   * the trace shows the burst/repair story: the domain fault, the
#     repair, and the watchdog's growth detection + budget grow-back.
#
# wedge mode: runs the wedged-head scenario (--wedge) twice and asserts:
#   * the wedge is cleared by abortive recovery (RESILIENCE: OK, and at
#     least one abortive recovery on the runner line);
#   * byte-identical reruns — the stall detection and the replay from
#     the commit frontier are as deterministic as every other path;
#   * the trace shows the wedge story: the wedge fires, the watchdog
#     detects the stall, and the region recovers.
#
# straggler mode: sweeps the slow-core A/B scenario (--straggler) over
# three seeds, running each seed twice, and asserts:
#   * the 1.15x makespan-improvement gate holds (RESILIENCE: OK) with the
#     exactly-once tail intact on both sides of the A/B;
#   * byte-identical reruns per seed — slow-core-aware placement is
#     deterministic in virtual time;
#   * the trace shows the avoidance story: the straggler windows open and
#     the rate sensor penalizes the slow cores.
#
# Usage: check_resilience.sh <path-to-bench_resilience> [workdir] [mode]
#   mode: legacy | burst | wedge | straggler | all (default all)

set -euo pipefail

BENCH=${1:?usage: check_resilience.sh <bench_resilience> [workdir] [mode]}
WORKDIR=${2:-$(mktemp -d)}
MODE=${3:-all}
mkdir -p "$WORKDIR"
SEED=42
PREFIX=resil
. "$(dirname "$0")/check_lib.sh"

if [ "$MODE" = legacy ] || [ "$MODE" = all ]; then
  twice legacy $SEED 'RESILIENCE: OK'

  TRACE="$WORKDIR/resil.legacy.1.trace.json"
  [ -s "$TRACE" ] || fail "trace file missing or empty: $TRACE"

  # The recovery story, in trace landmarks: a core fails, the watchdog
  # notices and shrinks capacity, and execution resumes reconfigured.
  grep -q '"fault_offline"' "$TRACE" || fail "no core-offline instant in trace"
  grep -q '"watchdog_detect"' "$TRACE" || fail "no watchdog detection in trace"
  grep -q '"capacity_drop"' "$TRACE" || fail "no capacity-drop instant in trace"
  grep -Eq '"transition"|"recover"' "$TRACE" ||
    fail "no pause/reconfigure/resume span in trace"
  grep -q '"task_fault"' "$TRACE" || fail "no transient task fault in trace"

  # Fault metrics (retries, detections, MTTR) land in the metrics dump.
  METRICS="$TRACE.metrics.txt"
  [ -s "$METRICS" ] || fail "metrics dump missing: $METRICS"
  grep -q 'watchdog\.detections' "$METRICS" || fail "no detection counter"
  grep -q 'watchdog\.mttr_us' "$METRICS" || fail "no MTTR histogram"
  grep -q '\.faults' "$METRICS" || fail "no fault counter"
fi

if [ "$MODE" = burst ] || [ "$MODE" = all ]; then
  # Seed sweep over the correlated burst + repair scenario: each seed must
  # recover, rerun byte-identically, and show the budget shrinking on the
  # domain event and growing back after the repair.
  for S in 7 21 42; do
    twice "burst.$S" "$S" 'RESILIENCE: OK' --burst
    # Non-zero budget transitions in both directions (shrink then grow).
    grep -Eq '^   budget: .* \([1-9][0-9]* shrink\(s\), [1-9][0-9]* grow\(s\)\)$' \
      "$WORKDIR/resil.burst.$S.1.out" ||
      fail "burst seed $S: budget did not both shrink and grow back"
  done

  BTRACE="$WORKDIR/resil.burst.42.1.trace.json"
  [ -s "$BTRACE" ] || fail "burst trace file missing or empty: $BTRACE"
  # The burst/repair story, in trace landmarks: the domain takes its
  # cores, the watchdog detects the drop, repair returns them, and the
  # watchdog grows the budget back.
  grep -q '"fault_domain"' "$BTRACE" || fail "no domain-burst instant in trace"
  grep -q '"fault_offline"' "$BTRACE" || fail "no core-offline instant in trace"
  grep -q '"repair_online"' "$BTRACE" || fail "no repair instant in trace"
  grep -q '"watchdog_grow"' "$BTRACE" || fail "no watchdog growth detection"
  grep -q '"capacity_grow"' "$BTRACE" || fail "no capacity-grow instant in trace"
  BMETRICS="$BTRACE.metrics.txt"
  [ -s "$BMETRICS" ] || fail "burst metrics dump missing: $BMETRICS"
  grep -q 'machine\.repairs' "$BMETRICS" || fail "no repair counter"
  grep -q 'watchdog\.growths' "$BMETRICS" || fail "no growth counter"
fi

if [ "$MODE" = wedge ] || [ "$MODE" = all ]; then
  twice wedge $SEED 'RESILIENCE: OK' --wedge

  # The verdict in the stdout summary: the wedge was cleared by at least
  # one whole-region abortive recovery.
  grep -Eq '^   runner: .* [1-9][0-9]* abortive recovery\(s\)$' \
    "$WORKDIR/resil.wedge.1.out" ||
    fail "wedge run took no abortive recovery"

  WTRACE="$WORKDIR/resil.wedge.1.trace.json"
  [ -s "$WTRACE" ] || fail "wedge trace file missing or empty: $WTRACE"
  # The wedge story, in trace landmarks: the wedge fires, the watchdog
  # detects the stall, and the region recovers from its commit frontier.
  grep -q '"fault_wedge"' "$WTRACE" || fail "no wedge instant in trace"
  grep -q '"watchdog_stall"' "$WTRACE" || fail "no stall detection in trace"
  grep -q '"recover"' "$WTRACE" || fail "no recovery in trace"
  WMETRICS="$WTRACE.metrics.txt"
  [ -s "$WMETRICS" ] || fail "wedge metrics dump missing: $WMETRICS"
  grep -q 'machine\.faults\.wedges' "$WMETRICS" || fail "no wedge counter"
  grep -q 'watchdog\.stalls' "$WMETRICS" || fail "no stall counter"
  grep -q 'watchdog\.mttr_us' "$WMETRICS" || fail "no MTTR histogram"
fi

if [ "$MODE" = straggler ] || [ "$MODE" = all ]; then
  # Seed sweep over the slow-core A/B: each seed must clear the makespan
  # gate with the ordered tail intact and rerun byte-identically.
  for S in 7 21 42; do
    twice "strag.$S" "$S" 'RESILIENCE: OK' --straggler
    # The A/B verdict itself: a real (>= 1.15x, gated by the bench)
    # makespan improvement from slow-core-aware placement.
    grep -Eq '^   improvement: [0-9]+\.[0-9]+x makespan' \
      "$WORKDIR/resil.strag.$S.1.out" ||
      fail "straggler seed $S: no makespan improvement line"
  done

  STRACE="$WORKDIR/resil.strag.42.1.trace.json"
  [ -s "$STRACE" ] || fail "straggler trace file missing or empty: $STRACE"
  # The avoidance story, in trace landmarks: dilation windows open and
  # the rate sensor penalizes the slow cores.
  grep -q '"fault_straggler"' "$STRACE" ||
    fail "no straggler-window instant in trace"
  grep -q '"core_penalized"' "$STRACE" ||
    fail "no core-penalized instant in trace"
  SMETRICS="$STRACE.metrics.txt"
  [ -s "$SMETRICS" ] || fail "straggler metrics dump missing: $SMETRICS"
  grep -q 'machine\.cores_penalized' "$SMETRICS" ||
    fail "no penalized-core counter"
fi

echo "check_resilience.sh: OK ($MODE, $WORKDIR)"

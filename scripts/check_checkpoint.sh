#!/usr/bin/env bash
# check_checkpoint.sh — end-to-end validation of region checkpoint,
# hot restart, and live migration.
#
# migrate mode: sweeps the cross-machine hot restart (default bench mode)
# over three seeds, running each seed twice, and asserts:
#   * CHECKPOINT: OK — the snapshot round-trips byte-identically, machine
#     B restores without re-measurement (MONITOR only), and the combined
#     A+B retired output matches an uninterrupted reference run element
#     for element;
#   * determinism — the two runs' stdout and Chrome traces are
#     byte-identical (same seed => same event sequence);
#   * the trace shows the migration story: the checkpoint quiesce, the
#     checkpoint instant, and the restore on machine B;
#   * restore-latency metrics (quiesce + restore histograms) land in the
#     metrics dump.
#
# drain mode: runs the warned-domain scenario (--drain) twice and
# asserts:
#   * the drain is proactive: zero abortive recoveries, zero rescued
#     threads, zero capacity-drop detections — the region migrates off
#     the doomed cores before they die, and the budget shrinks then
#     grows back after repair;
#   * byte-identical reruns;
#   * the trace shows the warning story: the domain warning, the
#     watchdog drain, and the resume.
#
# serve mode: runs the live-migration scenario (--serve) twice and
# asserts:
#   * in-flight request regions migrate and traffic keeps flowing
#     (completions both before the warning and after the migration);
#   * per-class goodput and admitted/shed counters are byte-identical
#     across the two same-seed runs (the stdout table is compared);
#   * the trace shows the serve drain and per-request migrate instants.
#
# flags mode: asserts the shared flag parser rejects a typo'd flag
# (--sed=42 must exit non-zero with a usage message, not silently run
# unseeded).
#
# Usage: check_checkpoint.sh <path-to-bench_checkpoint> [workdir] [mode]
#   mode: migrate | drain | serve | flags | all (default all)

set -euo pipefail

BENCH=${1:?usage: check_checkpoint.sh <bench_checkpoint> [workdir] [mode]}
WORKDIR=${2:-$(mktemp -d)}
MODE=${3:-all}
mkdir -p "$WORKDIR"
SEED=42
PREFIX=ckpt
. "$(dirname "$0")/check_lib.sh"

if [ "$MODE" = migrate ] || [ "$MODE" = all ]; then
  # Seed sweep: checkpoint on machine A, restore on machine B, and the
  # retired output must match the uninterrupted reference byte for byte
  # (the bench itself compares element-wise and prints CHECKPOINT: OK).
  for S in 7 21 42; do
    twice "mig.$S" "$S" 'CHECKPOINT: OK'
    grep -q 'identical to the uninterrupted reference' \
      "$WORKDIR/ckpt.mig.$S.1.out" ||
      fail "migrate seed $S: output not compared against the reference"
    grep -q 'round trip byte-identical' "$WORKDIR/ckpt.mig.$S.1.out" ||
      fail "migrate seed $S: snapshot round trip not verified"
  done

  MTRACE="$WORKDIR/ckpt.mig.42.1.trace.json"
  [ -s "$MTRACE" ] || fail "migrate trace file missing or empty: $MTRACE"
  # The migration story, in trace landmarks: the quiesce drains, the
  # checkpoint captures, and machine B restores.
  grep -q '"checkpoint_drain"' "$MTRACE" ||
    fail "no checkpoint quiesce span in trace"
  grep -q '"checkpoint"' "$MTRACE" || fail "no checkpoint instant in trace"
  grep -q '"restore"' "$MTRACE" || fail "no restore instant in trace"

  MMETRICS="$MTRACE.metrics.txt"
  [ -s "$MMETRICS" ] || fail "migrate metrics dump missing: $MMETRICS"
  grep -q 'checkpoint\.quiesce_latency_us' "$MMETRICS" ||
    fail "no quiesce-latency histogram"
fi

if [ "$MODE" = drain ] || [ "$MODE" = all ]; then
  twice drain $SEED 'CHECKPOINT: OK' --drain

  # The proactive verdict in the stdout summary: nothing aborted, nothing
  # stranded, nothing detected reactively — and the budget round-trips.
  grep -Eq '^   aborts avoided: 0 abortive recovery\(s\), 0 thread\(s\) rescued, 0 capacity-drop detection\(s\)$' \
    "$WORKDIR/ckpt.drain.1.out" ||
    fail "drain run aborted, stranded, or reactively detected something"
  grep -Eq '\([1-9][0-9]* shrink\(s\), [1-9][0-9]* grow\(s\)\)' \
    "$WORKDIR/ckpt.drain.1.out" ||
    fail "drain run: budget did not both shrink and grow back"

  DTRACE="$WORKDIR/ckpt.drain.1.trace.json"
  [ -s "$DTRACE" ] || fail "drain trace file missing or empty: $DTRACE"
  # The warning story, in trace landmarks: the machine announces the
  # domain, the watchdog drains, the region migrates and resumes.
  grep -q '"fault_domain_warning"' "$DTRACE" ||
    fail "no domain-warning instant in trace"
  grep -q '"watchdog_drain"' "$DTRACE" || fail "no watchdog drain in trace"
  grep -q '"watchdog_drain_done"' "$DTRACE" ||
    fail "no watchdog drain completion in trace"
  grep -q '"checkpoint"' "$DTRACE" || fail "no checkpoint instant in trace"
  grep -q '"restore"' "$DTRACE" || fail "no restore instant in trace"

  DMETRICS="$DTRACE.metrics.txt"
  [ -s "$DMETRICS" ] || fail "drain metrics dump missing: $DMETRICS"
  grep -q 'machine\.faults\.domain_warnings' "$DMETRICS" ||
    fail "no domain-warning counter"
  grep -q 'watchdog\.drain_latency_us' "$DMETRICS" ||
    fail "no drain-latency histogram"
  # The in-place resume after the drain records its restore latency
  # (the cross-machine restore in migrate mode starts a fresh simulator,
  # where a quiesce-to-restore delta has no meaning).
  grep -q 'checkpoint\.restore_latency_us' "$DMETRICS" ||
    fail "no restore-latency histogram"
fi

if [ "$MODE" = serve ] || [ "$MODE" = all ]; then
  # Per-class goodput and admitted/shed counters byte-identical across
  # the two same-seed runs: twice compares the whole stdout, including
  # the per-class table.
  twice serve $SEED 'CHECKPOINT: OK' --serve

  grep -Eq 'migration: [1-9][0-9]* request region\(s\) migrated' \
    "$WORKDIR/ckpt.serve.1.out" ||
    fail "serve run migrated no in-flight request"
  grep -Eq 'traffic: [1-9][0-9]* completion\(s\) before the warning, [1-9][0-9]* after' \
    "$WORKDIR/ckpt.serve.1.out" ||
    fail "serve traffic did not keep flowing across the drain"

  STRACE="$WORKDIR/ckpt.serve.1.trace.json"
  [ -s "$STRACE" ] || fail "serve trace file missing or empty: $STRACE"
  grep -q '"serve_drain"' "$STRACE" || fail "no serve drain in trace"
  grep -q '"migrate"' "$STRACE" || fail "no migrate instant in trace"
  grep -q '"serve_drain_done"' "$STRACE" ||
    fail "no serve drain completion in trace"

  SMETRICS="$STRACE.metrics.txt"
  [ -s "$SMETRICS" ] || fail "serve metrics dump missing: $SMETRICS"
  grep -q 'serve\.migrations' "$SMETRICS" || fail "no migration counter"
  grep -q 'serve\.drain_latency_us' "$SMETRICS" ||
    fail "no serve drain-latency histogram"
fi

if [ "$MODE" = flags ] || [ "$MODE" = all ]; then
  # A typo'd flag must abort with a usage message, not run unseeded.
  if "$BENCH" --sed=42 >"$WORKDIR/ckpt.flags.out" 2>&1; then
    fail "--sed=42 (typo) was silently accepted"
  fi
  grep -q "unknown flag '--sed=42'" "$WORKDIR/ckpt.flags.out" ||
    fail "typo'd flag did not name itself in the error"
  grep -q '^usage:' "$WORKDIR/ckpt.flags.out" ||
    fail "typo'd flag printed no usage line"
fi

echo "check_checkpoint.sh: OK ($MODE, $WORKDIR)"

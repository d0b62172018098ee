#!/usr/bin/env bash
# bench_json.sh — run the perf microbenchmarks and collect their
# machine-readable summaries:
#   BENCH_simcore.json    events/sec + allocs/event of the discrete-event
#                         core vs the legacy std::function implementation
#   BENCH_overheads.json  per-iteration Morta/Decima + channel overhead at
#                         pinned chunk sizes K = 1 / 8 / 32
#   BENCH_serve.json      per-phase goodput/p95/shedding of the two-class
#                         open-loop serving scenario (bench_serve)
#   BENCH_straggler.json  slow-core A/B of bench_resilience --straggler:
#                         makespan + p95 retire-gap improvement
#
# Usage: bench_json.sh <bench-bindir> [outdir]
#   <bench-bindir>  directory containing bench_simcore / bench_overheads
#   [outdir]        where the JSON lands (default: <bench-bindir>)

set -euo pipefail

BINDIR=${1:?usage: bench_json.sh <bench-bindir> [outdir]}
OUTDIR=${2:-$BINDIR}
mkdir -p "$OUTDIR"

# Modest event count: enough for a stable rate, small enough for CI.
"$BINDIR/bench_simcore" --events 500000 --json "$OUTDIR/BENCH_simcore.json"
"$BINDIR/bench_overheads" --json "$OUTDIR/BENCH_overheads.json"
# --batch adds the batched-dispatch A/B fields (speedup, under-load p50
# ratio, full/underfull batches, spin-up amortization) alongside the
# legacy per-phase summary.
"$BINDIR/bench_serve" --batch --json "$OUTDIR/BENCH_serve.json" >/dev/null
# Straggler A/B: same seed run with and without slow-core avoidance;
# the JSON carries both makespans and the ratio.
"$BINDIR/bench_resilience" --straggler \
  --json "$OUTDIR/BENCH_straggler.json" >/dev/null

echo "bench_json.sh: wrote $OUTDIR/BENCH_simcore.json"
echo "bench_json.sh: wrote $OUTDIR/BENCH_overheads.json"
echo "bench_json.sh: wrote $OUTDIR/BENCH_serve.json"
echo "bench_json.sh: wrote $OUTDIR/BENCH_straggler.json"

#!/usr/bin/env bash
# traffic_coverage.sh — which library lines do only the tests reach?
#
# A line of src/ that the unit tests execute but no bench, example or
# perfbench workload does is kept alive by its tests alone: a candidate
# for deletion (ROADMAP aim 2). This script builds the main tree and
# perfbench's tree with --coverage at -O0 (so counts map to source
# lines) and records two profiles:
#
#   traffic  every bench in each of its modes, every example and every
#            perfbench workload, each run once at its default seed, with
#            no tests; bench_serve, bench_checkpoint and bench_resilience
#            also run each mode once traced, as their check scripts do;
#   tests    the unit-test binaries parcae_tests and parcae_release_tests.
#
# Both profiles are read with `gcov --json-format`. For each file under
# src/ it then prints the lines with a count in the tests profile and
# none in the traffic profile, as line ranges:
#
#   src/core/Link.cpp: 76-81
#
# and a total. The other benches run untraced (a traced figure sweep
# writes over 100 MB), so trace paths only they would reach are listed.
#
# Not a ctest: it builds two trees and runs every bench. Builds, run
# outputs and profiles go to WORKDIR (default: a temporary directory,
# removed on exit); nothing is written under the checkout.
#
# Usage: traffic_coverage.sh [workdir]

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "${1:-}" ]; then
  WORKDIR=$(mkdir -p "$1" && cd "$1" && pwd)
else
  WORKDIR=$(mktemp -d)
  trap 'rm -rf "$WORKDIR"' EXIT
fi
JOBS=$(nproc)
[ "$JOBS" -gt 4 ] && JOBS=4
. "$ROOT/scripts/check_lib.sh" # fail

MAIN=$WORKDIR/main
PERF=$WORKDIR/perfbench
RUN=$WORKDIR/run
mkdir -p "$RUN"

echo "building coverage trees in $WORKDIR" >&2
{
  cmake -S "$ROOT" -B "$MAIN" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage &&
    cmake --build "$MAIN" -j "$JOBS" &&
    cmake -S "$ROOT/perfbench" -B "$PERF" -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS=--coverage &&
    cmake --build "$PERF" -j "$JOBS"
} >"$WORKDIR/build.log" 2>&1 || fail "build failed (see $WORKDIR/build.log)"

reset_counts() {
  find "$MAIN" "$PERF" -name '*.gcda' -delete
}

# run <binary> [args...] — one traffic or test run, its output kept in
# RUN; a non-zero exit fails the script (the profile would be partial).
N=0
run() {
  N=$((N + 1))
  local log=$RUN/$N.${1##*/}.log
  (cd "$RUN" && "$@") >"$log" 2>&1 || fail "$* exited non-zero (see $log)"
}

# profile <name> — aggregates every .gcda of both trees into
# WORKDIR/<name>.json: for each src/ file, the lines executed.
profile() {
  python3 - "$ROOT/src" "$WORKDIR/$1.json" "$MAIN" "$PERF" <<'EOF'
import glob, json, os, subprocess, sys

src, out, trees = os.path.realpath(sys.argv[1]), sys.argv[2], sys.argv[3:]
hit = {}
for gcda in (g for t in trees
             for g in glob.glob(t + "/**/*.gcda", recursive=True)):
    doc = json.loads(subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda], cwd=os.path.dirname(gcda),
        check=True, capture_output=True, text=True).stdout)
    for f in doc["files"]:
        path = os.path.realpath(
            os.path.join(doc["current_working_directory"], f["file"]))
        if not path.startswith(src + os.sep):
            continue
        rel = os.path.relpath(path, os.path.dirname(src))
        lines = hit.setdefault(rel, set())
        lines.update(l["line_number"] for l in f["lines"] if l["count"] > 0)
json.dump({k: sorted(v) for k, v in hit.items()}, open(out, "w"))
EOF
}

echo "running traffic" >&2
reset_counts
for B in "$MAIN"/bench/bench_*; do
  TRACED=1
  case ${B##*/} in
  bench_serve) MODES=("" --batch --straggler) ;;
  bench_checkpoint) MODES=("" --drain --serve) ;;
  bench_resilience) MODES=("" --burst --wedge --straggler) ;;
  bench_overheads) MODES=(--benchmark_min_time=0.01) TRACED= ;;
  *) MODES=("") TRACED= ;;
  esac
  for M in "${MODES[@]}"; do
    run "$B" $M
    [ -z "$TRACED" ] || run "$B" $M --trace "$RUN/$N.trace.json"
  done
done
for E in "$MAIN"/examples/example_*; do
  if [ "${E##*/}" = example_trace_viewer ]; then
    run "$E" --trace "$RUN/trace_viewer.json" --check
  else
    run "$E"
  fi
done
for W in serve-ladder nona-suite pipeline-faults; do
  run "$PERF/perfbench" --workload "$W" --seed 1 --seconds 0.001 --trace 0
done
profile traffic

echo "running tests" >&2
reset_counts
run "$MAIN/tests/parcae_tests"
run "$MAIN/tests/release/parcae_release_tests"
profile tests

python3 - "$WORKDIR/traffic.json" "$WORKDIR/tests.json" <<'EOF'
import json, sys

traffic, tests = (json.load(open(p)) for p in sys.argv[1:3])
total = files = 0
for path in sorted(tests):
    only = sorted(set(tests[path]) - set(traffic.get(path, [])))
    if not only:
        continue
    ranges, start = [], only[0]
    for prev, cur in zip(only, only[1:] + [None]):
        if cur != prev + 1:
            ranges.append(str(start) if start == prev else f"{start}-{prev}")
            start = cur
    print(f"{path}: {' '.join(ranges)}")
    total += len(only)
    files += 1
print(f"traffic_coverage.sh: {total} lines in {files} files reached by tests only")
EOF

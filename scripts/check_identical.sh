#!/usr/bin/env bash
# check_identical.sh — does this checkout behave exactly like BASE?
#
# The proof a refactor or deletion owes (ROADMAP aim 2): every
# virtual-time output it should not move stays byte for byte the same.
# Exports BASE with `git archive` into a temporary directory, builds the
# main tree and perfbench's tree for both BASE and this checkout (its
# working tree, uncommitted edits included), runs the comparison list
# below on both sides, and prints one line per comparison:
#
#   same     LABEL
#   differs  LABEL: line N: base: ... | this: ...
#   differs  LABEL: KEY: base X, this Y (rel R); ...
#
# where line N is the first line that differs, shown on each side; for a
# perfbench comparison whose only difference is in its `virtual:` JSON,
# each differing key is listed instead, with both values as printed and
# their relative difference. A command's exit status is compared as a
# last `exit: N` line. Compared
# are perfbench's `virtual:` lines (its host-time figures vary run to
# run) and the benches' stdout, with the `[telemetry]` banner filtered
# out as check_lib.sh's assert_identical does. Exits 0 when every
# comparison is `same`, 1 otherwise.
#
# Not a ctest: it builds four trees. Builds and outputs go to WORKDIR
# (default: a temporary directory, removed on exit); nothing is written
# under the checkout, perfbench/ included.
#
# Usage: check_identical.sh BASE [workdir]
#   e.g. scripts/check_identical.sh HEAD~1

set -euo pipefail

BASE=${1:?usage: check_identical.sh BASE [workdir]}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "${2:-}" ]; then
  WORKDIR=$2
  mkdir -p "$WORKDIR"
else
  WORKDIR=$(mktemp -d)
  trap 'rm -rf "$WORKDIR"' EXIT
fi
JOBS=$(nproc)
[ "$JOBS" -gt 4 ] && JOBS=4
. "$ROOT/scripts/check_lib.sh" # fail

# build <side> <source dir> — the bench/example targets of the main tree
# and the perfbench binary, as perfbench/run.py configures it.
build() {
  local out=$WORKDIR/$1 src=$2
  mkdir -p "$out"
  {
    cmake -S "$src" -B "$out/main" &&
      cmake --build "$out/main" -j "$JOBS" --target bench_serve \
        bench_checkpoint bench_resilience bench_fig8_9_platform \
        bench_fig8_8_controller bench_fig8_7_tpc_power \
        bench_fig8_6_tbf_timeline bench_table8_5_throughput \
        example_platform_sharing &&
      cmake -S "$src/perfbench" -B "$out/perfbench" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
      cmake --build "$out/perfbench" -j "$JOBS"
  } >"$out/build.log" 2>&1 || fail "$1 build failed (see $out/build.log)"
}

rm -rf "$WORKDIR/base-src"
mkdir -p "$WORKDIR/base-src"
git -C "$ROOT" archive "$BASE" | tar -x -C "$WORKDIR/base-src" ||
  fail "cannot export $BASE"
build base "$WORKDIR/base-src"
build this "$ROOT"

# first_diff A B — the first line where files A and B differ.
first_diff() {
  awk 'FILENAME == ARGV[1] { a[FNR] = $0; na = FNR; next }
       { b[FNR] = $0; nb = FNR; if (!d && (FNR > na || a[FNR] != $0)) d = FNR }
       END {
         if (!d) d = nb + 1
         printf "line %d: base: %s | this: %s\n", d,
                d <= na ? a[d] : "(end)", d <= nb ? b[d] : "(end)"
       }' "$1" "$2"
}

# key_diff A B — the keys whose values differ between the `virtual:`
# lines of perfbench outputs A and B; first_diff when anything else
# differs (exit status, number of lines).
key_diff() {
  python3 - "$1" "$2" <<'PY' || first_diff "$1" "$2"
import json, sys

def load(path):
    lines = open(path).read().splitlines()
    tag = "virtual: "
    # Values stay the text perfbench printed: equal text, equal value.
    rows = [json.loads(l[len(tag):], parse_float=str, parse_int=str)
            for l in lines if l.startswith(tag)]
    return rows, [l for l in lines if not l.startswith(tag)]

(a, rest_a), (b, rest_b) = load(sys.argv[1]), load(sys.argv[2])
if rest_a != rest_b or len(a) != len(b):
    sys.exit(1)
out = []
for x, y in zip(a, b):
    for k in sorted(set(x) | set(y)):
        vx, vy = x.get(k, "(absent)"), y.get(k, "(absent)")
        if vx == vy:
            continue
        try:
            fx, fy = float(vx), float(vy)
            rel = abs(fy - fx) / abs(fx) if fx else float("inf")
            out.append(f"{k}: base {vx}, this {vy} (rel {rel:.2g})")
        except ValueError:
            out.append(f"{k}: base {vx}, this {vy}")
print("; ".join(out))
PY
}

N=0
DIFFERS=0
# compare <label> virtual|stdout <binary> [args...] — runs the binary (a
# path inside a build tree) under both builds and compares its filtered
# stdout plus exit status.
compare() {
  local label=$1 mode=$2 bin=$3 side pat='^virtual:' keep=
  [ "$mode" = stdout ] && pat='^\[telemetry\]' keep=-v
  shift 3
  N=$((N + 1))
  for side in base this; do
    (
      cd "$WORKDIR/$side"
      set +e
      "./$bin" "$@" 2>"cmp.$N.err" | grep $keep "$pat"
      echo "exit: ${PIPESTATUS[0]}"
    ) >"$WORKDIR/$side/cmp.$N.out" &
  done
  wait
  if cmp -s "$WORKDIR/base/cmp.$N.out" "$WORKDIR/this/cmp.$N.out"; then
    echo "same     $label"
  else
    DIFFERS=$((DIFFERS + 1))
    local how=first_diff
    [ "$mode" = virtual ] && how=key_diff
    echo "differs  $label: $("$how" "$WORKDIR/base/cmp.$N.out" \
      "$WORKDIR/this/cmp.$N.out")"
  fi
}

# The comparison list.
for S in 1 2 3; do
  for W in serve-ladder nona-suite pipeline-faults; do
    compare "perfbench $W --seed $S" virtual perfbench/perfbench \
      --workload "$W" --seed "$S" --seconds 0.001 --trace 0
  done
done
for S in 42 7 21; do
  for F in "" --batch --straggler; do
    compare "bench_serve --seed $S${F:+ $F}" stdout main/bench/bench_serve \
      --seed "$S" $F
  done
  for F in "" --drain --serve; do
    compare "bench_checkpoint --seed $S${F:+ $F}" stdout \
      main/bench/bench_checkpoint --seed "$S" $F
  done
  for F in "" --burst --wedge --straggler; do
    compare "bench_resilience --seed $S${F:+ $F}" stdout \
      main/bench/bench_resilience --seed "$S" $F
  done
done
compare bench_fig8_9_platform stdout main/bench/bench_fig8_9_platform
compare bench_fig8_8_controller stdout main/bench/bench_fig8_8_controller
compare bench_fig8_7_tpc_power stdout main/bench/bench_fig8_7_tpc_power
compare bench_fig8_6_tbf_timeline stdout main/bench/bench_fig8_6_tbf_timeline
compare bench_table8_5_throughput stdout \
  main/bench/bench_table8_5_throughput
compare example_platform_sharing stdout \
  main/examples/example_platform_sharing

echo "check_identical.sh: $((N - DIFFERS)) of $N same vs $BASE"
[ "$DIFFERS" -eq 0 ]

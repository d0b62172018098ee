# check_lib.sh — helpers shared by the end-to-end check scripts
# (check_resilience.sh, check_serve.sh, check_checkpoint.sh). Source it
# after setting:
#   BENCH    the bench binary under test
#   WORKDIR  where run outputs land
#   PREFIX   file-name prefix for this script's outputs inside WORKDIR
# Run <tag> writes $WORKDIR/$PREFIX.<tag>.out (stdout and stderr) and
# $WORKDIR/$PREFIX.<tag>.trace.json (plus the trace's .metrics.txt).

fail() {
  echo "${0##*/}: FAIL: $1" >&2
  exit 1
}

# run <tag> <seed> [flags...] — one traced bench run.
run() {
  local tag=$1 seed=$2
  shift 2
  "$BENCH" --seed "$seed" "$@" \
    --trace "$WORKDIR/$PREFIX.$tag.trace.json" \
    >"$WORKDIR/$PREFIX.$tag.out" 2>&1 ||
    fail "run $tag exited non-zero (see $WORKDIR/$PREFIX.$tag.out)"
}

# Same seed, same virtual-time world: everything must be byte-identical.
# (The [telemetry] banner embeds the per-run trace path, so drop it.)
assert_identical() {
  local a=$WORKDIR/$PREFIX.$1 b=$WORKDIR/$PREFIX.$2
  grep -v '^\[telemetry\]' "$a.out" >"$a.flt"
  grep -v '^\[telemetry\]' "$b.out" >"$b.flt"
  cmp -s "$a.flt" "$b.flt" ||
    fail "stdout differs between identically seeded runs ($1 vs $2)"
  cmp -s "$a.trace.json" "$b.trace.json" ||
    fail "trace differs between identically seeded runs ($1 vs $2)"
}

# twice <tag> <seed> <verdict> [flags...] — runs <tag>.1 and <tag>.2 at
# one seed, requires the exact <verdict> line in the first run's output,
# and requires both runs to match byte for byte.
twice() {
  local tag=$1 seed=$2 verdict=$3
  shift 3
  run "$tag.1" "$seed" "$@"
  run "$tag.2" "$seed" "$@"
  grep -qxF "$verdict" "$WORKDIR/$PREFIX.$tag.1.out" ||
    fail "$tag (seed $seed): no '$verdict' verdict"
  assert_identical "$tag.1" "$tag.2"
}

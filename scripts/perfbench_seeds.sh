#!/usr/bin/env bash
# perfbench_seeds.sh — one perfbench result row per seed, for before/after
# tables over many seeds.
#
# Runs the perfbench binary that perfbench/run.py built in this checkout
# (.bench_build/perfbench/perfbench; run `python3 perfbench/run.py ...`
# once first), one seed per process, up to `nproc` processes at a time,
# each for the shortest run perfbench allows (its minimum of three
# passes). Virtual-time metrics are deterministic per seed, so one short
# run gives them exactly; host-time metrics (setup_s, peak_rss_mb) are
# printed too but are single noisy samples.
#
# Prints a header and then one row per seed, in the order given: the
# seed, every end-to-end metric of the JSON result line, and `failed`
# out of `attempted`. A seed whose run fails its correctness checks
# prints `correct=false` at the end of its row, and the script exits 1.
# Writes nothing under perfbench/; per-seed outputs go to a temporary
# directory that is removed on exit.
#
# To compare two commits, run the script from each checkout (copy it
# into an older one that lacks it); each uses its own build.
#
# Usage: perfbench_seeds.sh WORKLOAD "SEEDS"
#   e.g. scripts/perfbench_seeds.sh serve-ladder "1 2 3 25 101"

set -euo pipefail

WORKLOAD=${1:?usage: perfbench_seeds.sh WORKLOAD \"SEEDS\"}
SEEDS=${2:?usage: perfbench_seeds.sh WORKLOAD \"SEEDS\"}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BIN=$ROOT/.bench_build/perfbench/perfbench
[ -x "$BIN" ] || {
  echo "perfbench_seeds.sh: no $BIN; run perfbench/run.py once first" >&2
  exit 1
}

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# One process per seed, at most nproc at once. perfbench resolves its
# inputs from the seed alone, so the runs share nothing.
printf '%s\n' $SEEDS |
  xargs -P "$(nproc)" -I{} sh -c \
    '"$1" --workload "$2" --seed "$3" --seconds 0.001 --trace 0 \
       >"$4/$3.out" 2>&1 || true' _ "$BIN" "$WORKLOAD" {} "$OUT"

python3 - "$OUT" $SEEDS <<'EOF'
import json, sys

out, seeds = sys.argv[1], sys.argv[2:]
cols = ["setup_s", "peak_rss_mb", "energy_mj_per_op", "makespan_ms",
        "goodput_rps", "speedup_vs_seq", "p50_ms", "p99_ms"]
print("seed " + " ".join(cols) + " failed attempted")
bad = False
for s in seeds:
    lines = open(f"{out}/{s}.out").read().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{s} no result line", flush=True)
        bad = True
        continue
    m = r["metrics"]
    row = [s] + [f"{m[c]['value']:.7g}" for c in cols]
    row += [str(r["failed"]), str(r["attempted"])]
    if not r["correct"]:
        row.append("correct=false")
        bad = True
    print(" ".join(row))
sys.exit(1 if bad else 0)
EOF

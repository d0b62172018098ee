#!/usr/bin/env python3
"""Compares two perfbench_seeds.sh outputs seed by seed.

    scripts/seed_diff.py BEFORE AFTER

BEFORE and AFTER are the saved stdout of scripts/perfbench_seeds.sh
(a header row, then one row per seed) from two checkouts over the same
seeds. For every end-to-end metric of BENCHMARK.json, and for `failed`
(lower is better), prints:

  * how many seeds got better, worse and stayed equal, by the metric's
    direction in BENCHMARK.json, and which seeds got worse;
  * the range of the per-seed change, in percent of BEFORE;
  * the median and the sum over the seeds, before and after.

Exits 1 when the two files do not cover the same seeds, or when a row
has no result (perfbench_seeds.sh prints `SEED no result line` for a run
that printed no JSON line); otherwise 0, whatever the metrics did.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("seed_diff.py: " + msg, file=sys.stderr)
    sys.exit(1)


def read_rows(path):
    """Returns (columns, {seed: {column: value}}) of one output file."""
    with open(path) as f:
        lines = [l.split() for l in f if l.strip()]
    if not lines or lines[0][0] != "seed":
        fail(f"{path}: no perfbench_seeds.sh header row")
    cols = lines[0][1:]
    rows = {}
    for fields in lines[1:]:
        seed, values = fields[0], fields[1:]
        if seed in rows:
            fail(f"{path}: seed {seed} appears twice")
        try:
            rows[seed] = dict(zip(cols, (float(v) for v in values[:len(cols)])))
        except ValueError:
            fail(f"{path}: seed {seed} has no result: {' '.join(values)}")
        if len(rows[seed]) != len(cols):
            fail(f"{path}: seed {seed} has {len(values)} of {len(cols)} fields")
    return cols, rows


def fmt(x):
    return f"{x:,.6g}" if abs(x) < 1e6 else f"{x:,.0f}"


def main():
    if len(sys.argv) != 3:
        fail("usage: seed_diff.py BEFORE AFTER")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    better["failed"] = "lower"

    bcols, before = read_rows(sys.argv[1])
    acols, after = read_rows(sys.argv[2])
    if set(before) != set(after):
        only_b = sorted(set(before) - set(after), key=int)
        only_a = sorted(set(after) - set(before), key=int)
        fail(f"seed sets differ: only in BEFORE {only_b}, only in AFTER {only_a}")
    seeds = sorted(before, key=int)

    print(f"{len(seeds)} seeds: {' '.join(seeds)}")
    print(f"{'metric (better)':<25} {'better':>6} {'worse':>5} {'equal':>5}  "
          f"{'change % (min .. max)':<23} {'median before -> after':<28} "
          f"sum before -> after")
    worse_lists = []
    for name in [c for c in bcols if c in better]:
        if name not in acols:
            fail(f"AFTER has no {name} column")
        sign = 1 if better[name] == "higher" else -1
        up = down = same = 0
        worse, changes = [], []
        for s in seeds:
            b, a = before[s][name], after[s][name]
            if a == b:
                same += 1
            elif (a - b) * sign > 0:
                up += 1
            else:
                down += 1
                worse.append(s)
            if b != 0:
                changes.append((a - b) / abs(b) * 100)
        rng = (f"{min(changes):+.2f} .. {max(changes):+.2f}"
               if changes else "n/a")
        med = (f"{fmt(statistics.median(before[s][name] for s in seeds))} -> "
               f"{fmt(statistics.median(after[s][name] for s in seeds))}")
        tot = (f"{fmt(sum(before[s][name] for s in seeds))} -> "
               f"{fmt(sum(after[s][name] for s in seeds))}")
        label = f"{name} ({better[name]})"
        print(f"{label:<25} {up:>6} {down:>5} {same:>5}  {rng:<23} "
              f"{med:<28} {tot}")
        if worse:
            worse_lists.append(f"  {name} worse at seeds {' '.join(worse)}")
    for line in worse_lists:
        print(line)
    if "attempted" in bcols and "attempted" in acols:
        moved = [s for s in seeds
                 if before[s]["attempted"] != after[s]["attempted"]]
        if moved:
            print(f"  attempted differs at seeds {' '.join(moved)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Compare the deterministic counters of two benchmark result files.
#
#   bash ci/counts.sh A.json B.json
#
# A and B are `bench/run.sh -out` files (for example two committed
# BENCH_pr*.json). Only traced runs (`trace` 1) are read, the first one per
# workload, and of those only the metrics whose unit is `count`:
#
#   - allocation averages (every metric named *mallocs*) may move by up to
#     1 % of A's value;
#   - runtime.gc_cycles is scheduling noise and is skipped;
#   - every other count (sat.*, synth.*, pb.*, serve.*, topology.*) must
#     match to the unit.
#
# Prints one line per workload and metric that differs and exits 1, or
# prints "counts equal" and exits 0.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 A.json B.json" >&2
  exit 2
fi

diffs=$(jq -n -r --slurpfile a "$1" --slurpfile b "$2" '
  def counts:
    [.runs[] | select(.trace == 1)]
    | group_by(.workload)
    | map({key: .[0].workload,
           value: (.[0].metrics | with_entries(select(.value.unit == "count") | .value |= .value))})
    | from_entries;
  ($a[0] | counts) as $A | ($b[0] | counts) as $B
  | ($A + $B | keys[]) as $w
  | if $A[$w] == null or $B[$w] == null then
      "\($w): traced run missing in \(if $A[$w] == null then "A" else "B" end)"
    else
      ($A[$w] + $B[$w] | keys[]) as $m
      | select($m != "runtime.gc_cycles")
      | $A[$w][$m] as $x | $B[$w][$m] as $y
      | if $x == null or $y == null then
          "\($w) \($m): \($x) -> \($y) (missing)"
        elif ($m | test("mallocs")) then
          select(($y - $x | fabs) > 0.01 * ($x | fabs))
          | "\($w) \($m): \($x) -> \($y) (allocation average, more than 1 %)"
        else
          select($x != $y) | "\($w) \($m): \($x) -> \($y)"
        end
    end
')

if [ -n "$diffs" ]; then
  printf '%s\n' "$diffs"
  echo "counts differ: $(printf '%s\n' "$diffs" | wc -l) line(s)" >&2
  exit 1
fi
echo "counts equal"

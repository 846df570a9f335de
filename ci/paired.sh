#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against this working tree.
#
#   bash ci/paired.sh PARENT_REV [workload...]      (default: every workload)
#
# Extracts PARENT_REV into a temporary directory (git archive), then runs each workload in
# six pairs of `bench/run.sh --seconds 4 --trace 0`, seeds 1-6, the parent
# first on odd seeds and the change first on even ones, so a drift of the
# machine falls on both sides alike. Every run's result line is printed.
# Each side's -out files are merged with jq and judged by the harness's own
# `-compare` (parent = A, change = B); a workload not run shows as missing
# there, which makes its exit status 1.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 PARENT_REV [workload...]" >&2
  exit 2
fi
rev=$1
shift
pairs=6
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=$(mktemp -d)
parent="$work/parent"
trap 'rm -rf "$work"' EXIT
mkdir "$parent"
git -C "$root" archive "$rev" | tar -x -C "$parent"

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
fi

# run SIDE TREE WORKLOAD SEED
run() {
  local line
  line=$(bash "$2/bench/run.sh" --workload "$3" --seed "$4" --seconds 4 --trace 0 \
    -out "$work/$1-$3-$4.json" | tail -n 1)
  printf '%-15s seed %-2s %-7s %s\n' "$3" "$4" "$1" "$line"
}

for w in "${workloads[@]}"; do
  for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
      run parent "$parent" "$w" "$seed"
      run change "$root" "$w" "$seed"
    else
      run change "$root" "$w" "$seed"
      run parent "$parent" "$w" "$seed"
    fi
  done
done

for side in parent change; do
  jq -s '{runs: map(.runs[])}' "$work/$side"-*.json >"$work/$side.json"
done
bash "$root/bench/run.sh" -compare "$work/parent.json" "$work/change.json"

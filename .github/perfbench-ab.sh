#!/usr/bin/env bash
# A/B regression gate over perfbench. Builds the merge-base of REV and
# HEAD (REV itself when it is an ancestor) in a git worktree and the
# current checkout in place, then runs 3 alternating pairs of every
# BENCHMARK.json workload (the base first on odd pairs, seed k on both
# sides of pair k). Each run's last line, its JSON result, is
# appended to OUT/base/W.jsonl or OUT/change/W.jsonl and its full report
# to W.log beside it; `melyctl perf-gate` then judges the two
# directories. Run from the repository root:
#   bash .github/perfbench-ab.sh REV [OUT]
set -euo pipefail
base_rev=$(git merge-base "$1" HEAD)
out=${2:-perfbench-ab}
pairs=3
seconds=26
root=$(pwd)
base_tree=$(mktemp -d)/base
git worktree add --detach "$base_tree" "$base_rev"
trap 'git -C "$root" worktree remove --force "$base_tree"' EXIT
rm -rf "$out"
mkdir -p "$out/base" "$out/change"
workloads=$(sed -n 's/^ *{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)
dune build --root . ./bin/melyctl.exe

run() { # side tree workload seed
  local line
  line=$(bash "$2/perfbench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
    | tee -a "$out/$1/$3.log" | tail -n 1) || true
  echo "$line" >> "$out/$1/$3.jsonl"
  echo "$1 $3 seed $4: $line"
}

for w in $workloads; do
  for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
      run base "$base_tree" "$w" "$k"
      run change "$root" "$w" "$k"
    else
      run change "$root" "$w" "$k"
      run base "$base_tree" "$w" "$k"
    fi
  done
done
./_build/default/bin/melyctl.exe perf-gate "$out/base" "$out/change"

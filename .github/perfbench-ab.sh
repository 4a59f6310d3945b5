#!/usr/bin/env bash
# A/B regression gate over perfbench. Builds the merge-base of REV and
# HEAD (REV itself when it is an ancestor) in a git worktree and the
# current checkout in place, then runs 3 alternating pairs of every
# BENCHMARK.json workload (the base first on odd pairs, seed k on both
# sides of pair k). Each run's last line, its JSON result, is
# appended to OUT/base/W.jsonl or OUT/change/W.jsonl and its full report
# to W.log beside it; `melyctl perf-gate` then judges the two
# directories. One extra `--trace 1` run per workload on each side keeps
# its per-layer report (rt.events_per_op, rt.park_share, rt.busy_ratio,
# rt.steal_attempts, rt.parks_per_kop, ...) in OUT/base/W.traced.log and
# OUT/change/W.traced.log, so the artifact shows every layer before and
# after the change; these runs are not judged. Before the pairs,
# the deterministic simulator reproduction (`bench/main.exe --quick`)
# runs on both sides into OUT/base/bench-quick.txt and
# OUT/change/bench-quick.txt; if the two differ while EXPERIMENTS.md is
# unchanged since the merge-base, the script fails: moved simulator
# numbers must be re-run and written up in the same change. Run from
# the repository root:
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
dune build --root . ./bin/melyctl.exe ./bench/main.exe

(cd "$base_tree" && dune build --root . ./bench/main.exe 1>&2 && ./_build/default/bench/main.exe --quick) \
  > "$out/base/bench-quick.txt"
./_build/default/bench/main.exe --quick > "$out/change/bench-quick.txt"
if ! cmp -s "$out/base/bench-quick.txt" "$out/change/bench-quick.txt"; then
  if git diff --quiet "$base_rev" -- EXPERIMENTS.md; then
    diff "$out/base/bench-quick.txt" "$out/change/bench-quick.txt" || true
    echo "bench --quick: simulator output moved but EXPERIMENTS.md is unchanged since $base_rev" >&2
    exit 1
  fi
  echo "bench --quick: simulator output moved; EXPERIMENTS.md was updated"
else
  echo "bench --quick: simulator output identical to the base"
fi

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
  bash "$base_tree/perfbench/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
    > "$out/base/$w.traced.log" 2>&1 || true
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
    > "$out/change/$w.traced.log" 2>&1 || true
done
./_build/default/bin/melyctl.exe perf-gate "$out/base" "$out/change"

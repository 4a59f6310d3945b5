#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument goes to
# the benchmark (see suite.ml and README.md). Run from the repository
# root:
#   bash perfbench/run.sh --workload static_1k --seed 1 --seconds 26 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/suite.exe 1>&2
exec ./_build/default/perfbench/suite.exe "$@"

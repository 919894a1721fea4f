#!/usr/bin/env bash
# Builds the speedup CLI and the benchmark from source, then runs one
# workload from the repository root:
#   bash perfbench/run.sh --workload tables|serve-cold|serve-warm \
#     --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Build inside the checkout only: no shared dune cache in $HOME.
export DUNE_CACHE=disabled
dune build --root . ./bin/main.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

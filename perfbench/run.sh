#!/usr/bin/env bash
# Build the program under test (prefserve, prefroute) and the benchmark
# from this checkout, then run the benchmark. From the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./bin/prefserve.exe ./bin/prefroute.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"

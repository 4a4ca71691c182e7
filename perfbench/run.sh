#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it; all
# arguments go to the benchmark (see perfbench/README.md).  Run from
# the root of the checkout, e.g.
#   bash perfbench/run.sh --workload oltp_fig8 --seed 41 --seconds 20 --trace 0
# The build output goes to stderr, so the last line of stdout stays the
# JSON result.  The shared dune cache is disabled so that building
# writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"

#!/bin/sh
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root, for example:
#   sh bench/perf/run.sh --workload churn --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line on stdout is the run's
# JSON summary.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . --cache=disabled -j 2 ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"

#!/bin/sh
# The performance gate.  Run from the repository root:
#   sh bench/perf-gate.sh
# It runs every bench/perf workload at the default 5 rounds into
# perf-gate-run.json, then judges the run against the committed
# BENCH_perf.json with `perf.exe compare` under bench/perf-gate.json:
# - a row with bound 0 (every sim_* row and the per-layer counts) is
#   simulated or counted work, the same on any host, so it must equal
#   the committed value: a rise fails the forward compare, a fall the
#   reverse one;
# - alloc_bytes_per_sdu may rise by at most 2%;
# - sdus_per_s may fall by at most 25%.  Wall clock depends on the
#   host, so this rule is one-sided, and a side whose rounds spread
#   wider than 25% reads unresolved instead of worse.
# compare skips a (workload, metric) pair missing from either file,
# counts a committed 0 as unchanged and calls a row whose rounds spread
# unresolved, so a short table, a gated 0 in BENCH_perf.json and an
# unresolved exact row fail the gate too.  Exits 1 when the run fails
# its own checks or the gate fails.
#
# A change that moves a gated row on purpose regenerates the baseline
# in the same commit:
#   dune exec bench/perf/perf.exe -- --out BENCH_perf.json
set -e
perf=./_build/default/bench/perf/perf.exe
run=perf-gate-run.json
exact=perf-gate-exact.json
table=perf-gate-table.txt
fail () {
  echo "perf gate: $*" >&2
  exit 1
}

# perf.exe exits 1 when an operation failed or rounds disagreed
sh bench/perf/run.sh --out $run
workloads=$(jq '.workloads | length' BENCH_perf.json)

# judge GATE A B: compare A with B under GATE; every gated row must print
judge () {
  status=0
  $perf compare "$2" "$3" --bench "$1" > $table || status=$?
  cat $table
  rows=$(($(wc -l < $table) - 1))
  want=$(($(jq '.end_to_end | length' "$1") * workloads))
  [ "$status" -eq 0 ] || fail "a gated row moved past its rule (compare $2 $3)"
  [ "$rows" -eq "$want" ] || fail "$rows of $want gated rows compared"
}

judge bench/perf-gate.json BENCH_perf.json $run
if awk 'NR > 1 && $3 == 0 { bad = 1 } END { exit !bad }' $table; then
  fail "a gated row of BENCH_perf.json is 0"
fi
jq '.end_to_end |= map(select(.bound == 0))' bench/perf-gate.json > $exact
judge $exact $run BENCH_perf.json
if grep -q 'unresolved$' $table; then
  fail "an exact row differs between rounds"
fi
echo "perf gate: ok"

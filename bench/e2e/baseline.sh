#!/usr/bin/env bash
# Record one baseline set into OUT (JSON lines): untraced runs of every
# workload for seeds 1..N, workloads interleaved within each seed, then
# traced runs for seeds 1..T. Run from the root of a checkout; record two
# sets and compare them with
#   _build/default/bench/e2e/grt_bench.exe compare A.jsonl B.jsonl
# Usage: bash bench/e2e/baseline.sh OUT [N=10] [T=2]
set -uo pipefail

out=${1:?usage: bash bench/e2e/baseline.sh OUT [N] [T]}
n=${2:-10}
t=${3:-2}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
workloads="fleet-hot fleet-churn record-zoo replay-zoo"

run() {
  if ! bash bench/e2e/run.sh --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
    --json "$out" >/dev/null; then
    echo "baseline.sh: $1 seed $2 trace $3 failed" >&2
  fi
}

for seed in $(seq 1 "$n"); do
  for w in $workloads; do run "$w" "$seed" 0; done
done
for seed in $(seq 1 "$t"); do
  for w in $workloads; do run "$w" "$seed" 1; done
done

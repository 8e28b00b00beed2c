#!/usr/bin/env bash
# Build the benchmark from this checkout, then run it with the given
# arguments, e.g.
#   bash bench/e2e/run.sh --workload fleet-hot --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/dune ]; then
  echo "run.sh: run from the root of a GR-T checkout (dune-project, lib/, bench/e2e/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

# --root pins the workspace to this checkout; the shared dune cache would
# write outside it.
dune build --root . --cache=disabled --display=quiet ./bench/e2e/grt_bench.exe >&2
exec ./_build/default/bench/e2e/grt_bench.exe "$@"

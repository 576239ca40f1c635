#!/usr/bin/env bash
# Build gqlsh and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the tree. Build output and scratch files go under
# .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f dune-project ] || { echo "run.sh: no dune-project here; run from the repository root" >&2; exit 2; }
build=.bench_build
# The shared dune cache lives outside the tree; build without it.
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --profile release \
  ./bin/gqlsh.exe ./perfbench/main.exe >&2
exec "$build/default/perfbench/main.exe" \
  --gqlsh "$build/default/bin/gqlsh.exe" --scratch "$build/run" "$@"

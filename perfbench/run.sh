#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example
#
#   bash perfbench/run.sh --workload paused_queries --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steadiness 10 --seconds 30
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# under the root, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload tpch-sim --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build at the root of the checkout (build cache included, so nothing
# is written outside the checkout) and runs it from this directory.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
go build -o "$build/dgs-benchmark" .
exec "$build/dgs-benchmark" "$@"

#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the
# checkout's sources and runs it, keeping the Go build cache and the
# binary inside the checkout (.bench_build/), then passes its flags on:
#   bash bench/run.sh --workload probe --seed 1 --seconds 18 --trace 0
# Run from the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -o "$build/predmatch-bench" ./bench
exec "$build/predmatch-bench" "$@"

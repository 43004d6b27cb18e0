#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments. Everything the build writes — Go's
# build cache, its temporary files and the binary — stays inside the checkout.
# `go run ./benchmark` does the same job with the user's own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"

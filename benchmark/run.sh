#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# BENCHMARK.json's command, run from the root of the checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write — compiler cache, binary, paged-state
# files, traces — stays under .bench_build in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -out "$build/out" "$@"

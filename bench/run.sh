#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes —
# build cache, module cache, its own settings — goes under .bench_build
# in the current directory, and nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

# The benchmark's module refers to the repository through `replace
# repro => ../`, so outside a full checkout this build fails and no
# result is printed.
(cd "$(dirname "$0")" && go build -o "$build/bench" .)
exec "$build/bench" "$@"

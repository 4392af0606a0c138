#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything the go tool writes (build cache,
# temporary files, its config and telemetry, the binary) is kept under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/gpubench" .
exec "$build/gpubench" "$@"

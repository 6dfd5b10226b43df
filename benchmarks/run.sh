#!/bin/bash
# Builds the benchmark program from source and runs it with the given
# arguments. Everything the build leaves behind (binary, Go build cache,
# temporary files) stays under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath" # the (empty) module cache
export XDG_CONFIG_HOME="$build/config" # go's telemetry counters
export TMPDIR="$build/tmp"             # go build's work dir and the serve registries
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/benchmarks" -o "$build/sabenchmarks" .
exec "$build/sabenchmarks" "$@"

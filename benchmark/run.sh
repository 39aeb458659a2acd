#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go's build cache, the binary) stays under
# .bench_build/ in the checkout; arguments go to the program unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/rftpbench" .
exec "$build/rftpbench" "$@"

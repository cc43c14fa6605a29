#!/usr/bin/env bash
# Builds cmd/loadbench from source and runs it with the given arguments.
# Run from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, temporary files, WAL directories,
# trace files) stays under .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C cmd/loadbench -o "$build/loadbench" .
exec "$build/loadbench" "$@"

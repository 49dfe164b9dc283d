#!/bin/bash
# Entry point of BENCHMARK.json's command: build the benchmark from source
# into .bench_build/ at the root of the checkout, then run it there with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, work directories) is pointed inside .bench_build/ as well, so a run
# touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/helcfl-bench" .
cd "$root"
exec "$build/helcfl-bench" "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the load generator and
# hands over to it, with the Go toolchain's cache, temp files and settings
# kept inside the checkout: a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS=
cd "$root/bench"
go build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"

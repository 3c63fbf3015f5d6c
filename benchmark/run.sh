#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the runner from source into
# .bench_build (Go's caches too, so nothing is written outside the
# checkout) and hands it the driver's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
go build -C "$root/benchmark" -o "$build/omegasm-benchmark" .
cd "$root"
exec "$build/omegasm-benchmark" "$@"

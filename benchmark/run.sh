#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache and GOPATH included, so nothing is written
# elsewhere) and runs it from there. Arguments go to the benchmark: see
# README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOFLAGS= GOTOOLCHAIN=local
go -C benchmark build -o "$root/.bench_build/llmsql-benchmark" .
exec .bench_build/llmsql-benchmark "$@"

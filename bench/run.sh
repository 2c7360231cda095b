#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the repository root. Everything the build and the run write stays under
# .bench_build/ and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/medbench" .
exec "$build/medbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the program.
# Everything it writes stays inside the checkout: the Go build cache and the
# binary under .bench_build/, database files under .bench_tmp/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"

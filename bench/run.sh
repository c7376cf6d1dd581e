#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (the Go build cache and the binary) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"

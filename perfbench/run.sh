#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload grid --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary live under .bench_build/
# in the repository root, so nothing is read from or written to a shared
# cache outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS="-buildvcs=false"
export GOWORK=off

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

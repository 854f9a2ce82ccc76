#!/usr/bin/env bash
# Builds the revperf benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash revperf/run.sh --workload hot-local --seed 101 --seconds 10 --trace 0
#
# Build outputs, including the Go build cache, stay in .bench_build/ under
# the repository root so the benchmark reads and writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/revperf" build -o "$out/revperf" .
exec "$out/revperf" "$@"

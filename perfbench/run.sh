#!/usr/bin/env bash
# Builds chortled and the benchmark from this checkout into .bench_build
# (the Go build cache too, so nothing is written outside the checkout),
# then runs the benchmark from the checkout root with the given flags:
#
#   bash perfbench/run.sh --workload serve-repeat --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off
go build -o "$out/chortled" ./cmd/chortled
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -chortled "$out/chortled" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/perfbench and runs it
# with the given arguments, from the root of a checkout of the repository:
#
#   bash _perfbench/run.sh --workload paper-8node-2pl --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build, so a
# run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/_perfbench" build -buildvcs=false -o "$out/perfbench" .
PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"

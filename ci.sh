#!/usr/bin/env bash
# ci.sh — the checks every PR must pass, in increasing order of cost:
# gofmt, vet, the determinism linter (ddbmlint statically enforces the
# invariants the golden tests can only probe dynamically), build, full
# test suite, a race pass over the whole module (runGrid fans simulations
# out across host goroutines — real race territory; -short skips only the
# marathon paper-shape reproductions, which the Tiny studies cover and
# which would push the race pass past the go test timeout), a kernel
# benchmark smoke so a catastrophic performance regression fails loudly
# even without reading numbers, and the benchmark module's own tests.
#
# For performance numbers, run the benchmark declared in BENCHMARK.json:
#   bash _perfbench/run.sh --workload paper-8node-2pl --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== ddbmlint (determinism invariants)"
# The full check suite: the per-file checks plus the interprocedural ones —
# taint-wall-clock and taint-rand (exempt-scope helpers that transitively
# read the host clock or the global rand source are findings at the
# boundary call into simulation scope) and hotpath-alloc (//ddbmlint:hotpath
# functions must be statically allocation-free, transitively).
go run ./cmd/ddbmlint ./...

echo "== ddbmlint fixture harness"
# The // want-comment fixtures under testdata/lint and testdata/interp pin
# every check's exact finding set, including both taint checks and
# hotpath-alloc, plus the output-determinism guarantee and the CLI's -json
# round-trip.
go test -run 'TestFixtures|TestInterprocFixtures|TestLintDeterminism|TestLoaderFailures' ./internal/lint/
go test -run 'TestRunJSONRoundTrip|TestRunExitCodes' ./cmd/ddbmlint/

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== kernel benchmark smoke"
go test -run '^$' -bench 'BenchmarkEventThroughput|BenchmarkProcessSwitch|BenchmarkSameInstant|BenchmarkReschedule' \
  -benchtime 0.1s -benchmem ./internal/sim/

echo "== lock-manager benchmark smoke"
# The contention hot path must stay allocation-free: TestSteadyStateAllocFree
# pins acquire/release, block/promote, waits-for extraction, withdrawal and
# victim selection at 0 allocs/op; the benchmarks catch gross slowdowns.
go test -run 'TestSteadyStateAllocFree' \
  -bench 'BenchmarkWaitsForEdges|BenchmarkReleaseAll|BenchmarkFindVictims' \
  -benchtime 0.1s -benchmem ./internal/cc/

echo "== perfbench module tests"
# _perfbench is a module of its own, so ./... above skips it. Its tests pin
# the profile decoder, the layer attribution, the metric names against
# BENCHMARK.json and the correctness gates. Same environment as run.sh: the
# build cache stays under .bench_build and nothing is fetched.
(
  pb="$PWD/.bench_build/perfbench"
  mkdir -p "$pb/gocache" "$pb/tmp"
  cd _perfbench
  GOCACHE="$pb/gocache" GOTMPDIR="$pb/tmp" GOMODCACHE="$pb/gomodcache" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
    go test ./...
)

echo "== transaction-path allocation pin"
# The end-to-end transaction path (terminals, plans, attempts, envelopes,
# commit fan-out, locks, CPU/disk queues, metrics) must stay allocation-free
# in steady state across every commit-protocol variant, and the packages it
# spans must keep their hot paths statically auditable by ddbmlint.
go test -run 'TestTxnPathAllocFree' -count=1 ./internal/core/
go run ./cmd/ddbmlint ./internal/core/ ./internal/commit/ ./internal/network/ ./internal/workload/

echo "== commit-protocol sweep smoke"
# All three 2PC variants end-to-end at a tiny time scale: a wedged protocol
# (lost vote, missing ack) deadlocks the simulation and fails loudly here.
go run ./cmd/experiments -fig cps -scale 0.02 -q

echo "== trace smoke"
# A short traced + probed run at the default think time 0 (restarts and
# straggling cohorts included) must export a structurally valid Chrome
# trace: JSON parses, spans nest, cohort/commit-phase spans sit under
# their attempt. tracecheck exits non-zero on any violation.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/ddbsim -simtime 30 -warmup 5 \
  -trace-out "$tracedir/smoke.json" -probe-interval 100 >/dev/null
go run ./cmd/tracecheck "$tracedir/smoke.json"

echo "== breakdown smoke"
# Time-breakdown accounting end to end: the reconciliation property pins
# (every committed attempt's phase ledger must sum to its response time
# across all commit-protocol variants, and breakdown on/off must be
# bit-identical), then a short -breakdown report + CSV export and the
# decomposition figure at a tiny scale — a phase attribution that no
# longer telescopes or a broken exporter fails loudly here.
go test -run 'TestBreakdown' -count=1 ./internal/core/
go run ./cmd/ddbsim -simtime 30 -warmup 5 -think 4 \
  -breakdown -breakdown-out "$tracedir/bd.csv" >/dev/null
go run ./cmd/experiments -fig bd -scale 0.02 -q >/dev/null

echo "== fault-tolerance smoke"
# The fault subsystem end to end: a race pass over the injector and the
# recovery machinery, the fault property tests (stream isolation, crash
# recovery under every protocol, cause accounting, golden-trace bit
# identity), then the Ext K mini-grid — a wedged crash path (a coordinator
# parked on a dead cohort, a restart that never rejoins) deadlocks the
# simulation and fails loudly here.
go test -race -count=1 ./internal/fault/ ./internal/recovery/
go test -run 'TestFault' -count=1 ./internal/core/
go run ./cmd/experiments -fig ft -scale 0.02 -q >/dev/null
go run ./cmd/ddbsim -simtime 60 -warmup 10 -think 4 -logging -mttf 20 >/dev/null

echo "== long-run termination"
# The default configuration must reach 3000 simulated seconds on seeds 1-3
# (-short keeps these runs out of the race pass). A processor-sharing job
# whose completion delay rounded away at a late clock used to re-fire at
# one instant forever; the CPU regression test pins that unit case.
go test -run 'TestCPUSubSpacingJobCompletes' -count=1 ./internal/resource/
go test -run 'TestLongRunTerminates' -count=1 ./internal/core/

echo "CI OK"

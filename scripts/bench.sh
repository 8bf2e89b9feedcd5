#!/usr/bin/env bash
# Perf gate: run the compiler/simulator benchmarks and write the perf
# trajectory artifact (committed at the repo root). Each entry records host
# cost (ns/op, B/op, allocs/op) plus any custom metrics the benchmark
# reports (guest_instructions, simple_ops, ...), so regressions in either
# compile speed or simulator throughput show up in review diffs.
#
# Parsing and JSON encoding live in cmd/benchdiff (internal/benchfmt),
# which escapes benchmark names properly — the awk emitter that used to
# live here did not. The same tool diffs a fresh run against the committed
# artifact: scripts/check.sh runs a quick smoke comparison, and
#   go test -run '^$' -bench ... -benchmem . | go run ./cmd/benchdiff -baseline BENCH_pr5.json
# is the full gate.
#
# Usage: scripts/bench.sh [output.json [faultsweep-output.json [load-output.json [warmcold-output.json [simnodes-output.json]]]]]
# BENCHTIME=2s scripts/bench.sh   # longer runs for quieter numbers
# LOADJOBS=80 scripts/bench.sh    # more jobs per earthload sweep point
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr5.json}"
fault_out="${2:-BENCH_fault_pr5.json}"
load_out="${3:-BENCH_pr6.json}"
warm_out="${4:-BENCH_pr7.json}"
sim_out="${5:-BENCH_pr8.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkCompile|BenchmarkSimulator|BenchmarkOldenQuick|BenchmarkFig10)$' \
    -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$raw"

go run ./cmd/benchdiff -emit < "$raw" > "$out"
echo "bench: wrote $out"

# The reliable-messaging fault sweep is tracked across PRs like the perf
# trajectory: every benchmark under increasing fault rates, checking
# completion and result fidelity (deterministic for a fixed seed).
go run ./cmd/paperbench -faultsweep -json -scale quick -out "$fault_out"
echo "bench: wrote $fault_out"

# Service throughput sweep: earthload drives a self-hosted earthd through
# 1/2/4/8 pipeline shards with the mixed Olden workload and emits
# BenchmarkEarthload/shards=N lines (jobs/sec, mean job latency) that join
# the benchdiff-gated trajectory. scripts/check.sh diffs a short rerun
# against this artifact.
go run ./cmd/earthload -sweep 1,2,4,8 -c 8 -n "${LOADJOBS:-40}" -bench \
    2> >(sed 's/^/  /' >&2) > "$raw"
go run ./cmd/benchdiff -emit < "$raw" > "$load_out"
echo "bench: wrote $load_out"

# Warm/cold compile sweep: the compile-cache contract. BenchmarkCompileWarm
# recompiles unchanged source against a warm cache (one hash + one lookup);
# paired with the cold BenchmarkCompile it pins warm-recompile cost at well
# under 10% of cold. scripts/check.sh diffs a short rerun against this
# artifact, and TestWarmRecompileUnderTenPercentOfCold enforces the ratio
# directly in the test suite.
go test -run '^$' -bench '^(BenchmarkCompile|BenchmarkCompileWarm)$' \
    -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$raw"
go run ./cmd/benchdiff -emit < "$raw" > "$warm_out"
echo "bench: wrote $warm_out"

# Event-loop scalability sweep: the halo ring exchange at 4/64/256/1024
# simulated nodes with the windows run inline (w=1) and on a worker pool
# (w=GOMAXPROCS). events is deterministic (Exact-gated); events_sec is the
# throughput trajectory. scripts/check.sh diffs a short rerun against this
# artifact.
go test -run '^$' -bench '^BenchmarkSimNodes$' \
    -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$raw"
go run ./cmd/benchdiff -emit < "$raw" > "$sim_out"
echo "bench: wrote $sim_out"

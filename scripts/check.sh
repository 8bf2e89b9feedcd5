#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, tests. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# The reproduction's numbers must be a pure function of the source: build
# paperbench once, run every artifact twice at quick scale (about a second)
# and require byte-identical output.
pb=$(mktemp -d)
trap 'rm -rf "$pb"' EXIT
go build -o "$pb/paperbench" ./cmd/paperbench
"$pb/paperbench" -all -scale quick >"$pb/1.txt"
"$pb/paperbench" -all -scale quick >"$pb/2.txt"
cmp "$pb/1.txt" "$pb/2.txt"
# Run every root benchmark once (about a second): a benchmark that only
# compiles can still b.Fatal at run time, and nothing else would notice.
go test -run '^$' -bench . -benchtime 1x .
# The benchmark is a nested module, outside the root ./..., that compiles
# against earthsim.Config, server.Config and a dozen other internal APIs:
# vet and test it here so a moved API is noticed before the benchmark runs.
go vet -C benchmark ./...
go test -C benchmark ./...
# The whole module must also be clean under the race detector: one pipeline
# and its compile cache serve concurrent goroutines (earthd's shards, and
# TestSharedPipelineConcurrency), and earthd's scrape endpoints read the one
# registry and live job timelines while the shard workers write
# them — this catches any accidental sharing. The counter pins
# (counters_test.go; their allocation ceilings skip themselves here), the
# {benchmark x faults} golden matrix against testdata/engine_golden.json, the
# timeline concurrency tests and the journal-recovery set all run here, and
# once more without the detector in `go test ./...` above. So do the two
# end-to-end legs that build and boot the real earthd binary, which
# `go test -short` skips: cmd/earthd's TestBinarySmoke (200/400, /buildinfo,
# the timeline, the stage histograms, a clean SIGTERM drain) and
# cmd/earthchaos's TestSeededCycle (one seeded SIGKILL/restart cycle).
go test -race ./...
# Native-fuzz smoke leg: ten seconds of parser fuzzing, seeded from
# testdata/ (including the malformed-input corpus). Catches panics the
# hand-written corpus misses; a real finding lands in testdata/fuzz/.
go test -fuzz=FuzzParse -fuzztime=10s -run '^$' ./internal/earthc
# And ten seconds of optimizer fuzzing: each input seeds the random program
# generator of TestOptimizerSemanticsFuzz, and the optimized builds must
# print what the sequential and simple builds print.
go test -fuzz=FuzzOptimizerSemantics -fuzztime=10s -run '^$' ./internal/core

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
# TestSharedPipelineConcurrency), and earthd's scrape endpoints read the shard
# registries and live job timelines while the shard workers write
# them — this catches any accidental sharing. The counter pins
# (counters_test.go; their allocation ceilings skip themselves here), the
# {benchmark x faults} golden matrix against testdata/engine_golden.json, the
# timeline concurrency tests and the journal-recovery set all run here, and
# once more without the detector in `go test ./...` above.
go test -race ./...
# Service smoke leg: boot a real earthd on an ephemeral port, submit one
# good job and one malformed job over HTTP, then verify SIGTERM produces a
# clean drain (exit 0, "drained cleanly" in the log). This exercises the
# binary end to end — flag parsing, listener bootstrap, the HTTP surface,
# and the signal path — which no in-process test does.
earthd_bin="$(mktemp)"
earthd_log="$(mktemp)"
trap 'rm -f "$earthd_bin" "$earthd_log"' EXIT
go build -o "$earthd_bin" ./cmd/earthd
"$earthd_bin" -addr 127.0.0.1:0 -shards 2 >"$earthd_log" 2>&1 &
earthd_pid=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$earthd_log" && break
    sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$earthd_log")
if [ -z "$port" ]; then
    echo "earthd smoke: server never announced its port" >&2
    cat "$earthd_log" >&2
    exit 1
fi
ok_code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$port/jobs" -d '{"benchmark":"power","quick":true,"nodes":4}')
bad_code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$port/jobs" -d '{"benchmark":"no-such-benchmark"}')
# Observability smoke: the binary reports its identity, a completed job's
# host-side timeline is retained with the queue.wait and sim.run stages,
# and /metrics.json carries the per-stage latency histograms.
curl -s "http://127.0.0.1:$port/buildinfo" | grep -q '"go_version"' || {
    echo "earthd smoke: /buildinfo missing go_version" >&2
    exit 1
}
curl -s -o /dev/null -X POST "http://127.0.0.1:$port/jobs" \
    -d '{"id":"smoke-tl","benchmark":"power","quick":true,"nodes":4}'
timeline=$(curl -s "http://127.0.0.1:$port/jobs/smoke-tl/timeline?format=text")
for stage in queue.wait sim.run; do
    echo "$timeline" | grep -q "$stage" || {
        echo "earthd smoke: timeline missing $stage span:" >&2
        echo "$timeline" >&2
        exit 1
    }
done
curl -s "http://127.0.0.1:$port/metrics.json" | grep -qF 'earthd_stage_ns{stage=\"sim.run\"}' || {
    echo "earthd smoke: /metrics.json missing the sim.run stage histogram" >&2
    exit 1
}
kill -TERM "$earthd_pid"
if ! wait "$earthd_pid"; then
    echo "earthd smoke: dirty exit after SIGTERM" >&2
    cat "$earthd_log" >&2
    exit 1
fi
if [ "$ok_code" != 200 ] || [ "$bad_code" != 400 ]; then
    echo "earthd smoke: good job -> $ok_code (want 200), malformed -> $bad_code (want 400)" >&2
    cat "$earthd_log" >&2
    exit 1
fi
grep -q 'drained cleanly' "$earthd_log" || {
    echo "earthd smoke: no clean-drain message in log:" >&2
    cat "$earthd_log" >&2
    exit 1
}
echo "earthd smoke: 200/400/timeline/clean drain ok"
# Chaos smoke leg: one seeded SIGKILL/restart cycle against a real earthd
# with a journal. The harness asserts zero lost accepted jobs and that every
# replayed payload is byte-identical to a clean run — the crash-safety
# contract, end to end through the real binary and real fsyncs.
chaos_bin="$(mktemp)"
trap 'rm -f "$earthd_bin" "$earthd_log" "$chaos_bin"' EXIT
go build -o "$chaos_bin" ./cmd/earthchaos
"$chaos_bin" -earthd "$earthd_bin" -n 8 -cycles 1 -seed 7
echo "chaos smoke: kill/restart cycle ok"
# Native-fuzz smoke leg: ten seconds of parser fuzzing, seeded from
# testdata/ (including the malformed-input corpus). Catches panics the
# hand-written corpus misses; a real finding lands in testdata/fuzz/.
go test -fuzz=FuzzParse -fuzztime=10s -run '^$' ./internal/earthc

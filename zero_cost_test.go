package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/metrics"
)

// pinSimulator runs BenchmarkSimulator's workload under opt and holds it to
// the simulator row of the ledger in counters_test.go: the guest schedule
// exactly, and allocations per run within slack objects of the measured
// count — a layer that allocated per message or per event would add
// thousands, and one that allocated per run more than slack.
func pinSimulator(t *testing.T, what string, opt core.Options, slack int64) *earthsim.Result {
	t.Helper()
	run := simulatorRun(t, opt)
	res := run()
	checkCount(t, what, "instructions", res.Counts.Instructions, simulator.instructions)
	checkAllocs(t, what, simulator.allocs+slack, func() { run() })
	return res
}

// TestFaultLayerZeroCostWhenDisabled locks the "zero cost when disabled"
// property of the fault-injection layer: with RunConfig.Faults nil, the
// simulator executes the same guest schedule and allocates no more per run
// than BenchmarkSimulator is measured to.
func TestFaultLayerZeroCostWhenDisabled(t *testing.T) {
	res := pinSimulator(t, "fault-free run", core.Options{Optimize: true}, 8)
	if res.Faults != nil {
		t.Error("fault-free run carries FaultStats")
	}
}

// TestMetricsZeroCostWhenDisabled locks the same property of the telemetry
// layer: no registry attached.
func TestMetricsZeroCostWhenDisabled(t *testing.T) {
	pinSimulator(t, "unmetered run", core.Options{Optimize: true}, 8)
}

// TestMetricsRegistryRunOverheadBounded: a pipeline with a registry attached
// updates a handful of counters per run. Counter lookups are map reads and
// updates are atomics, so the steady-state budget is the unmetered count plus
// a sliver, and the guest schedule is untouched. (The first run, which
// registers the counters and allocates once, is simulatorRun's priming run.)
func TestMetricsRegistryRunOverheadBounded(t *testing.T) {
	pinSimulator(t, "metered run", core.Options{Optimize: true, Metrics: metrics.NewRegistry()}, 16)
}

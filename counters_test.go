package repro_test

import (
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/olden"
)

// The perf ledger's deterministic half. Every wall-clock number lives in
// benchmark/ (BENCHMARK.json, with a measured noise bound); what has no other
// home is this handful of integers, which identical source must reproduce on
// any host. TestCounters asserts them with ==, so a change that moves one
// legitimately edits one literal here, in view of the reviewer.

// oldenCounters has one row per quick Olden program on 4 nodes.
var oldenCounters = []struct {
	program string
	// BenchmarkOldenQuick's run (oldenQuickRun).
	instructions, events int64
	// Figure 10: dynamic communication operations, simple and optimized
	// (harness.MeasureFig10Single).
	simpleOps, optOps int64
	// Measured allocations per BenchmarkOldenQuick run.
	allocs int64
}{
	{"power", 257219, 483, 6464, 2672, 236},
	{"tsp", 28947, 6193, 3298, 1534, 1072},
	{"health", 60092, 11286, 14929, 7017, 811},
	{"perimeter", 339749, 23528, 6493, 5897, 2509},
	{"voronoi", 103257, 34297, 15990, 8758, 4621},
}

// haloEvents is BenchmarkSimNodes' deterministic metric: events of the halo
// ring exchange per machine size.
var haloEvents = []struct {
	nodes  int
	events int64
}{
	{4, 1930},
	{64, 32890},
	{256, 131962},
	{1024, 528250},
}

// simulator is BenchmarkSimulator's row: power with every observer off, so
// its guest schedule is power's above. The zero-cost pins in
// zero_cost_test.go hold the fault and telemetry layers to it.
var simulator = struct {
	instructions int64
	allocs       int64 // measured per run
}{257219, 139}

// Measured allocations per op of BenchmarkCompile and BenchmarkCompileWarm.
const (
	compileAllocs     = 28861
	compileWarmAllocs = 20
)

// ceiling is what TestCounters allows where measured allocations are
// recorded: a tenth more.
func ceiling(measured int64) int64 { return measured + measured/10 }

// raceEnabled is set by race_test.go. The race runtime drops a quarter of
// sync.Pool puts at random and allocates shadow state of its own, so
// allocation counts under -race are neither deterministic nor the program's.
var raceEnabled bool

// checkAllocs fails when f allocates more than max objects per run.
func checkAllocs(t *testing.T, what string, max int64, f func()) {
	t.Helper()
	if raceEnabled {
		return
	}
	if got := int64(testing.AllocsPerRun(5, f)); got > max {
		t.Errorf("%s: allocs per run: got %d, want <= %d", what, got, max)
	}
}

func checkCount(t *testing.T, what, column string, got, want int64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: %s: got %d, want %d", what, column, got, want)
	}
}

func TestCounters(t *testing.T) {
	for _, want := range oldenCounters {
		bm := olden.ByName(want.program)
		if bm == nil {
			t.Fatalf("%s: no such Olden program", want.program)
		}
		run := oldenQuickRun(t, bm)
		res := run()
		checkCount(t, want.program, "instructions", res.Counts.Instructions, want.instructions)
		checkCount(t, want.program, "events", res.Events, want.events)
		checkAllocs(t, "OldenQuick/"+want.program, ceiling(want.allocs), func() { run() })

		row, err := harness.MeasureFig10Single(bm, olden.QuickParams(bm), 4)
		if err != nil {
			t.Fatal(err)
		}
		checkCount(t, want.program, "simple_ops", row.TotalSimple, want.simpleOps)
		checkCount(t, want.program, "opt_ops", row.OptTotal(), want.optOps)
	}
	if got, want := len(olden.All()), len(oldenCounters); got != want {
		t.Errorf("olden.All() has %d programs, the table %d", got, want)
	}

	halo := olden.Halo()
	p := core.NewPipeline(core.Options{Optimize: true})
	u, err := p.Compile("halo.ec", halo.Source(halo.DefaultParams))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range haloEvents {
		res, err := p.Run(u, core.RunConfig{Nodes: want.nodes})
		if err != nil {
			t.Fatal(err)
		}
		checkCount(t, "halo/nodes="+strconv.Itoa(want.nodes), "events", res.Events, want.events)
	}

	run := simulatorRun(t, core.Options{Optimize: true})
	checkCount(t, "Simulator", "instructions", run().Counts.Instructions, simulator.instructions)
	checkAllocs(t, "Simulator", ceiling(simulator.allocs), func() { run() })

	// BenchmarkCompile and BenchmarkCompileWarm: health at default size,
	// without a cache and against a warm one.
	health := olden.ByName("health")
	req := core.CompileRequest{Name: "health.ec", Source: health.Source(health.DefaultParams)}
	compile := func(p *core.Pipeline) func() {
		return func() {
			if _, err := p.Do(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAllocs(t, "Compile", ceiling(compileAllocs), compile(core.NewPipeline(core.Options{Optimize: true})))
	// AllocsPerRun's warm-up call fills the cache; a miss afterwards would
	// blow the ceiling a thousandfold.
	checkAllocs(t, "CompileWarm", ceiling(compileWarmAllocs),
		compile(core.NewPipeline(core.Options{Optimize: true, Cache: cache.New(0, "")})))
}

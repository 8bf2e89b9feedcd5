package repro_test

import (
	"runtime"
	"runtime/debug"
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
	// Figure 10 operations of the profile-guided build (Pipeline.ProfileCycle
	// on the same 4 nodes), the ablation table's PGO row.
	pgoOps int64
	// Measured allocations per BenchmarkOldenQuick run. Each fell by 45–79
	// (power from 182) when the telemetry sampler was deleted, by 0–4 more
	// when each node kept one pending EU wake-up (a shorter event queue grows
	// fewer times), by 35–4,002 (from 136, 918, 674, 2,299 and 4,206) when
	// blocking on a fill started to reuse the node's emptied waiter lists,
	// and by 8–67 (from 101, 241, 243, 904 and 204, measured 90, 217, 224,
	// 874 and 177) when the per-node shard record, with its own freelists,
	// scratch buffer and fault maps, was folded into the one Machine, and
	// tsp's, perimeter's and voronoi's by 30, 18 and 1 when constants became
	// immediate operands (health measures 217 since, within its ceiling),
	// and tsp's, perimeter's and voronoi's by 72, 391 and 60 (from 164, 819
	// and 162, measured 166, 818 and 160) when each leaf subtree began to
	// be built and solved on its one owner: fewer messages, fewer events.
	allocs int64
}{
	// When optimized builds began clustering blocked structs' hot fields,
	// health's instructions and events moved from 60,092 and 5,675,
	// perimeter's events from 10,231 and voronoi's instructions and events
	// from 103,257 and 34,261; every operation count held. When constants
	// became immediate operands (bini, and imm straight into the assigned
	// variable), instructions fell from 257,219, 28,947, 60,116, 339,749 and
	// 102,332, and power's, perimeter's and voronoi's events moved from 309,
	// 10,192 and 33,336; every operation count held. When a comm temp began
	// to share the frame slot of the variable its one copy assigns (the get
	// fills the variable; the copy emits no move), tsp's, health's,
	// perimeter's and voronoi's instructions fell from 23,110, 50,153,
	// 231,812 and 86,166 and their events moved from 6,157, 5,699, 10,284
	// and 33,335; every operation count held. When a read through a pointer
	// copy began to be forwarded from the copied pointer's buffer words
	// (wrap's best->y and best->x), voronoi's instructions, events,
	// optimized and PGO operations fell from 82,460, 33,331, 8,758 and
	// 8,500; every other row held. When tsp, voronoi and perimeter began
	// to derive their decomposition depth from num_nodes() (levels()), so
	// each leaf subtree is built and solved on its one owner, their
	// instructions fell from 22,694, 80,028 and 226,636 and their events
	// from 6,117, 21,755 and 10,285; the operation counts held (a runtime
	// call that became local is still a call). When a loop-top read began
	// to be carried around the back edge (placement.Carry: tsp's
	// tour_length walk and voronoi's final walk fetch q->x, q->y and
	// q->next in one block and copy them into the head's buffer at the
	// latch), tsp's instructions rose from 22,327 (the copies) and its
	// events, optimized and PGO operations fell from 1,814, 1,534 and
	// 1,439; voronoi's instructions rose from 78,178 and its events,
	// optimized and PGO operations fell from 6,109, 5,268 and 5,010. When
	// a forall iteration began to be spawned with only its live-ins and
	// the step's get of lat->next to leave before the spawn, power's
	// events fell from 311; every operation count held. When independent
	// placed builds began to run as the arms of a {^ ^} sequence, tsp's,
	// perimeter's and voronoi's instructions rose from 22,618, 225,134 and
	// 78,247 (the arms' spawns and joins), health's fell from 49,632 (its
	// spread levels compute their owners once, not per loop trip), and
	// the events of all four rose from 1,250, 5,676, 1,610 and 5,999 (a
	// fiber per arm); every operation count held.
	{"power", 195570, 309, 6464, 2672, 2672, 75},
	{"tsp", 22636, 1259, 3298, 1407, 1312, 92},
	{"health", 49217, 5706, 14929, 7017, 7017, 216},
	{"perimeter", 225144, 1615, 6493, 5897, 5897, 428},
	{"voronoi", 78265, 6008, 15990, 5243, 4985, 102},
}

// haloEvents is BenchmarkSimNodes' row per machine size: the events of the
// halo ring exchange (deterministic) and the measured allocations per run,
// which pin how a run's allocations grow with the node count — about seven
// per node, the node record and its tables. They were 95, 939, 3,632 and
// 14,393 while each node also had a shard record of its own. The events
// were one fewer at each size before constants became immediate operands,
// and one fewer again before each forall iteration began to be spawned
// with its live-ins, its step's get of c->next already in flight.
var haloEvents = []struct {
	nodes          int
	events, allocs int64
}{
	{4, 1529, 79},
	{64, 28889, 505},
	{256, 116441, 1853},
	{1024, 466649, 7237},
}

// haloJobBytes and haloJobAllocs are the measured heap bytes and allocations
// of one 128-node halo run set up as an earthd job (jobRun) — benchmark/'s
// halo_sharded job and BenchmarkHaloJob. They fell from 674,347 and 10,130
// when the always-on telemetry sampler was deleted (its series' EU, SU and
// link quantities are all in a trace recording), from 537,360 and 10,107
// when blocking on a fill started to reuse the node's emptied waiter lists,
// and from 480,264 and 2,221 (measured 386,723 and 1,835) when the per-node
// shard record was folded into the one Machine.
const (
	haloJobBytes  = 237_328
	haloJobAllocs = 955
)

// tracedMixBytes and tracedMixAllocs are the measured heap bytes and
// allocations of one round of tracedMixRun (BenchmarkTracedMix): the five
// quick Olden programs on 4 nodes, traced into one recorder that is reset and
// reused, as earthd does. The simulator records straight into that recorder.
// When each shard recorded into a fresh private one that Run then merged, a
// round took 25.5 MB, 35 times as much; the sampler's deletion took the round
// from 734,312 bytes and 29,616 allocations to 669,113 and 29,505, and one
// pending EU wake-up per node to 29,495 allocations, reused waiter lists to
// 603,270 bytes and 22,955 allocations, and a ring per node for the
// recorder's SU queue bookkeeping (SUSpan), which had re-sliced and appended
// to a slice per node, to 214,532 bytes and 1,676 allocations, and folding
// the per-node shard record into the one Machine to 177,800 bytes and 1,485
// allocations (measured 197,296 and 1,581 before), and constants as
// immediate operands to 175,835 bytes and 1,438 allocations, and tsp,
// voronoi and perimeter building and solving each leaf subtree on its one
// owner (a quarter as many events to record) to 133,561 bytes and 914
// allocations.
const (
	tracedMixBytes  = 133_561
	tracedMixAllocs = 914
)

// simulator is BenchmarkSimulator's row: power with every observer off, so
// its guest schedule is power's above. The zero-cost pins in
// zero_cost_test.go hold the fault and telemetry layers to it (257,219
// instructions before constants became immediate operands).
var simulator = struct {
	instructions int64
	allocs       int64 // measured per run
}{195570, 75}

// Measured allocations per op of BenchmarkCompile, BenchmarkCompileTiny,
// BenchmarkColdJob and BenchmarkCompileWarm, and the heap bytes of the cold
// compile and of the cold job. A compile fell from 28,861 allocations when
// the per-function worker pool was deleted and each phase wrote straight
// into its result in function order, and from 28,205 allocations and
// 2,611,716 bytes when read/write sets became sorted arrays of interned ids
// instead of up to four maps per statement. It fell from 21,669
// allocations and 1,982,624 bytes, and the five tiny programs from 106,666
// allocations, when placement's tuple sets became immutable and shared
// instead of deep-copied at every statement, and commsel's frame stack,
// findGoto's path and the walkers' child lists stopped being copied per
// statement. It fell from 9,373 allocations and 1,381,448 bytes, the tiny
// programs from 47,578 allocations, and the cold job from 53,121
// allocations and 8,503,832 bytes, when sema recorded its results on the
// AST instead of in four per-node maps, lowering and code generation
// indexed slices by symbol and variable ids, site keys were built only
// for the instructions that carry one, the token slice was sized from the
// source, and each function's code was copied out once at its final
// length instead of doubling.
const (
	compileAllocs     = 9_113
	compileBytes      = 1_043_192
	compileTinyAllocs = 45_831
	coldJobAllocs     = 46_861
	coldJobBytes      = 5_646_904
	compileWarmAllocs = 20
)

// ceiling is what TestCounters allows where measured allocations are
// recorded: a tenth more.
func ceiling(measured int64) int64 { return measured + measured/10 }

// raceEnabled is set by race_test.go. The race runtime drops a quarter of
// sync.Pool puts at random and allocates shadow state of its own, so
// allocation counts under -race are neither deterministic nor the program's.
var raceEnabled bool

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates over runs calls, after one warm-up call. Like
// AllocsPerRun it counts with GOMAXPROCS at 1: sync.Pool keeps a private
// slot per P, so a run that migrates to another P misses the arenas the
// warm-up pooled and allocates them afresh, which on a loaded host added
// about 70 KB to a round now and then. The collector is off from before the
// warm-up until it has counted: a cycle empties the simulator's arena pool,
// and refilling it would be charged to whichever run the cycle happened to
// hit.
func bytesPerRun(runs int, f func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

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
	ablation, err := harness.MeasureAblation(4, olden.QuickParams)
	if err != nil {
		t.Fatal(err)
	}
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
		if pgo := ablation.Row(want.program, "PGO"); pgo == nil {
			t.Errorf("%s: the ablation table has no PGO row", want.program)
		} else {
			checkCount(t, want.program, "pgo_ops", pgo.Ops, want.pgoOps)
		}
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
		what := "halo/nodes=" + strconv.Itoa(want.nodes)
		rc := core.RunConfig{Nodes: want.nodes}
		res, err := p.Run(u, rc)
		if err != nil {
			t.Fatal(err)
		}
		checkCount(t, what, "events", res.Events, want.events)
		checkAllocs(t, "SimNodes/"+what, ceiling(want.allocs), func() { p.Run(u, rc) })
	}

	run := simulatorRun(t, core.Options{Optimize: true})
	checkCount(t, "Simulator", "instructions", run().Counts.Instructions, simulator.instructions)
	checkAllocs(t, "Simulator", ceiling(simulator.allocs), func() { run() })

	haloJob := jobRun(t, halo, 128)
	checkAllocs(t, "HaloJob", ceiling(haloJobAllocs), func() { haloJob() })
	checkAllocs(t, "TracedMix", ceiling(tracedMixAllocs), tracedMixRun(t))

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
	checkAllocs(t, "CompileTiny", ceiling(compileTinyAllocs), compileTinyRun(t))
	checkAllocs(t, "ColdJob", ceiling(coldJobAllocs), coldJobRun(t))
	// AllocsPerRun's warm-up call fills the cache; a miss afterwards would
	// blow the ceiling a thousandfold.
	checkAllocs(t, "CompileWarm", ceiling(compileWarmAllocs),
		compile(core.NewPipeline(core.Options{Optimize: true, Cache: cache.New(0, "")})))
}

// TestHaloJobBytes holds the many-node run to haloJobBytes.
func TestHaloJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation under -race is not the program's")
	}
	run := jobRun(t, olden.Halo(), 128)
	if got, want := bytesPerRun(5, func() { run() }), ceiling(haloJobBytes); got > want {
		t.Errorf("128-node halo job: bytes per run: got %d, want <= %d", got, want)
	}
}

// TestCompileBytes holds BenchmarkCompile's cold compile of health to
// compileBytes.
func TestCompileBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation under -race is not the program's")
	}
	health := olden.ByName("health")
	src := health.Source(health.DefaultParams)
	p := core.NewPipeline(core.Options{Optimize: true})
	compile := func() {
		if _, err := p.Compile("health.ec", src); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := bytesPerRun(5, compile), ceiling(compileBytes); got > want {
		t.Errorf("cold compile of health: bytes per compile: got %d, want <= %d", got, want)
	}
}

// TestColdJobBytes holds BenchmarkColdJob's compile and code generation of
// the five tiny programs to coldJobBytes.
func TestColdJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation under -race is not the program's")
	}
	if got, want := bytesPerRun(5, coldJobRun(t)), ceiling(coldJobBytes); got > want {
		t.Errorf("cold job of the tiny programs: bytes per run: got %d, want <= %d", got, want)
	}
}

// TestTracedMixBytes holds a round of traced quick jobs to tracedMixBytes.
func TestTracedMixBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation under -race is not the program's")
	}
	if got, want := bytesPerRun(5, tracedMixRun(t)), ceiling(tracedMixBytes); got > want {
		t.Errorf("traced quick mix: bytes per round: got %d, want <= %d", got, want)
	}
}

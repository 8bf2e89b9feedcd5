package earthsim_test

// The determinism matrix: the event loop must be externally
// indistinguishable from itself at every worker count — not just the
// program-visible result, but the full observability surface (Chrome trace
// export and telemetry series JSON), with the fault layer both off and on —
// and must still compute what testdata/engine_golden.json froze before the
// second, sequential loop was deleted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/contenthash"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/metrics"
	"repro/internal/olden"
	"repro/internal/trace"
)

const matrixFaults = "drop=0.01,dup=0.005,stall=0.02,delay=2,seed=11"

// surface is everything one execution shows the outside.
type surface struct {
	res           *earthsim.Result
	trace, series string
}

// matrixRun compiles bm at quick size and executes it once with a trace
// recorder and a 50µs sampler attached. cost is a ParseOverrides spec.
func matrixRun(t *testing.T, bm *olden.Benchmark, nodes, workers int, faultSpec, cost string) surface {
	t.Helper()
	rec := trace.NewRecorder(nodes)
	sampler := metrics.NewSampler(50_000, 0)
	p := core.NewPipeline(core.Options{Optimize: true})
	u, err := p.Compile(bm.Name+".ec", bm.Source(olden.QuickParams(bm)))
	if err != nil {
		t.Fatal(err)
	}
	var faults *earthsim.FaultConfig
	if faultSpec != "" {
		faults, err = earthsim.ParseFaultSpec(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
	}
	machine, err := earthsim.ParseOverrides(cost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(u, core.RunConfig{
		Nodes: nodes, SimWorkers: workers, Faults: faults, Sampler: sampler, Machine: machine,
		Trace: rec,
	})
	if err != nil {
		t.Fatalf("%s nodes=%d workers=%d faults=%q cost=%q: %v", bm.Name, nodes, workers, faultSpec, cost, err)
	}
	var tr, se bytes.Buffer
	if err := rec.WriteChrome(&tr); err != nil {
		t.Fatal(err)
	}
	if err := sampler.WriteSeriesJSON(&se); err != nil {
		t.Fatal(err)
	}
	return surface{res, tr.String(), se.String()}
}

// sameBytes asserts that got is indistinguishable from ref: Result fields,
// trace export and series JSON.
func sameBytes(t *testing.T, label string, got, ref surface) {
	t.Helper()
	if got.res.Visible() != ref.res.Visible() {
		t.Errorf("%s Visible diverges:\n%s\nvs reference:\n%s", label, got.res.Visible(), ref.res.Visible())
	}
	if got.res.Time != ref.res.Time || got.res.Counts != ref.res.Counts || got.res.Events != ref.res.Events {
		t.Errorf("%s timing/counts diverge: time %d vs %d, events %d vs %d",
			label, got.res.Time, ref.res.Time, got.res.Events, ref.res.Events)
	}
	if got.trace != ref.trace {
		t.Errorf("%s trace export not byte-identical (%d vs %d bytes)", label, len(got.trace), len(ref.trace))
	}
	if got.series != ref.series {
		t.Errorf("%s series JSON not byte-identical (%d vs %d bytes)", label, len(got.series), len(ref.series))
	}
}

// goldenCell is one entry of testdata/engine_golden.json; the file's
// captured_from field says what each value was taken from.
type goldenCell struct {
	Program string `json:"program"`
	Nodes   int    `json:"nodes"`
	Faults  string `json:"faults"`
	Visible string `json:"visible"`
	Time    int64  `json:"time"`
	Events  int64  `json:"events"`
	Trace   string `json:"trace"`
	Series  string `json:"series"`
}

func golden(t *testing.T, program string, nodes int, faults string) goldenCell {
	t.Helper()
	b, err := os.ReadFile("testdata/engine_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Cells []goldenCell }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Cells {
		if c.Program == program && c.Nodes == nodes && c.Faults == faults {
			return c
		}
	}
	t.Fatalf("engine_golden.json has no cell for %s nodes=%d faults=%q", program, nodes, faults)
	return goldenCell{}
}

// checkVisible holds r to what the frozen sequential loop computed.
func (g goldenCell) checkVisible(t *testing.T, r surface) {
	t.Helper()
	if v := r.res.Visible(); v != g.Visible {
		t.Errorf("Visible diverges from the frozen sequential loop:\n--- got ---\n%s\n--- golden ---\n%s", v, g.Visible)
	}
}

// check holds r to the whole frozen cell: Visible(), Time, Events and both
// content hashes.
func (g goldenCell) check(t *testing.T, r surface) {
	t.Helper()
	g.checkVisible(t, r)
	if r.res.Time != g.Time || r.res.Events != g.Events {
		t.Errorf("time/events moved: %d/%d, golden %d/%d", r.res.Time, r.res.Events, g.Time, g.Events)
	}
	if h := contenthash.Source(r.trace); h != g.Trace {
		t.Errorf("trace export moved: %s, golden %s", h, g.Trace)
	}
	if h := contenthash.Source(r.series); h != g.Series {
		t.Errorf("series JSON moved: %s, golden %s", h, g.Series)
	}
}

// TestShardedEquivalenceMatrix sweeps {Olden benchmark} x {faults off/on}:
// the SimWorkers=1 run must match the golden, and SimWorkers 0, 2 and 8 must
// be byte-identical to it.
func TestShardedEquivalenceMatrix(t *testing.T) {
	const nodes = 4
	for _, bm := range append(olden.All(), olden.Halo()) {
		for _, faultSpec := range []string{"", matrixFaults} {
			name := bm.Name
			if faultSpec != "" {
				name += "/faults"
			}
			bm, faultSpec := bm, faultSpec
			t.Run(name, func(t *testing.T) {
				ref := matrixRun(t, bm, nodes, 1, faultSpec, "")
				golden(t, bm.Name, nodes, faultSpec).check(t, ref)
				for _, w := range []int{0, 2, 8} {
					sameBytes(t, fmt.Sprintf("workers=%d", w), matrixRun(t, bm, nodes, w, faultSpec, ""), ref)
				}
			})
		}
	}
}

// TestSharded256Nodes: a quick benchmark on a 256-node machine, driven by a
// worker pool, still matches the golden cell.
func TestSharded256Nodes(t *testing.T) {
	bm := olden.ByName("power")
	golden(t, bm.Name, 256, "").check(t, matrixRun(t, bm, 256, 2, "", ""))
}

// TestDegenerateWindows covers the two configurations that used to switch
// engines silently. A one-node machine is a single shard with an unbounded
// window; NetLatency=0 floors every window at "the events at T1". Both must
// compute what the sequential loop computed (zero latency moves no
// program-visible quantity, so its reference is the plain 4-node cell) and
// stay byte-identical across worker counts.
func TestDegenerateWindows(t *testing.T) {
	for _, bm := range append(olden.All(), olden.Halo()) {
		for _, tc := range []struct {
			name        string
			nodes       int
			cost        string
			goldenNodes int
		}{
			{"nodes=1", 1, "", 1},
			{"latency=0", 4, "NetLatency=0", 4},
		} {
			bm, tc := bm, tc
			t.Run(bm.Name+"/"+tc.name, func(t *testing.T) {
				ref := matrixRun(t, bm, tc.nodes, 1, "", tc.cost)
				golden(t, bm.Name, tc.goldenNodes, "").checkVisible(t, ref)
				for _, w := range []int{2, 8} {
					sameBytes(t, fmt.Sprintf("workers=%d", w), matrixRun(t, bm, tc.nodes, w, "", tc.cost), ref)
				}
			})
		}
	}
}

// ewmaRun executes bm under an aggressive retransmission timeout with the
// chosen RTO policy and returns the fault statistics.
func ewmaRun(t *testing.T, bm *olden.Benchmark, fixed bool) earthsim.FaultStats {
	t.Helper()
	p := core.NewPipeline(core.Options{Optimize: true})
	u, err := p.Compile(bm.Name+".ec", bm.Source(olden.QuickParams(bm)))
	if err != nil {
		t.Fatal(err)
	}
	// No loss, no reordering: every retransmission under this config is
	// spurious by construction. Timeout sits just above the unloaded
	// round-trip, so any queueing pushes the fixed policy into needless
	// retransmits while the EWMA estimator adapts its RTO upward.
	faults := &earthsim.FaultConfig{Timeout: 8_000, MaxRetries: 50, Seed: 1}
	faults.SetFixedRTO(fixed)
	res, err := p.Run(u, core.RunConfig{Nodes: 4, Faults: faults})
	if err != nil {
		t.Fatalf("%s fixed=%v: %v", bm.Name, fixed, err)
	}
	if res.Faults == nil {
		t.Fatalf("%s fixed=%v: no fault stats", bm.Name, fixed)
	}
	return *res.Faults
}

// TestEWMAReducesSpuriousRetransmits: the adaptive srtt/rttvar estimator
// must cut spurious retransmissions versus the historical fixed-timeout
// policy on a real workload (ISSUE satellite: EWMA RTT estimation).
func TestEWMAReducesSpuriousRetransmits(t *testing.T) {
	bm := olden.ByName("power")
	fixed := ewmaRun(t, bm, true)
	ewma := ewmaRun(t, bm, false)
	if fixed.SpuriousRetries == 0 {
		t.Fatalf("fixed-RTO baseline produced no spurious retransmits (stats %+v); timeout too lax for the comparison", fixed)
	}
	if ewma.SpuriousRetries >= fixed.SpuriousRetries {
		t.Errorf("EWMA did not reduce spurious retransmits: ewma=%d fixed=%d",
			ewma.SpuriousRetries, fixed.SpuriousRetries)
	}
	t.Logf("spurious retransmits: fixed=%d ewma=%d (%.1fx reduction)",
		fixed.SpuriousRetries, ewma.SpuriousRetries,
		float64(fixed.SpuriousRetries)/float64(max(ewma.SpuriousRetries, 1)))
}

package earthsim_test

// The golden matrix: the event loop must compute what
// testdata/engine_golden.json froze — not just the program-visible result,
// but the time, the event count and the recording (its Chrome trace export,
// summary and canonical form), with the fault layer both off and on. The
// file's captured_from says when each value was frozen and why it moved.

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"testing"

	"repro/internal/contenthash"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/trace"
)

const matrixFaults = "drop=0.01,dup=0.005,stall=0.02,delay=2,seed=11"

// surface is everything one execution shows the outside.
type surface struct {
	res            *earthsim.Result
	trace, summary string
}

// matrixRun compiles bm at quick size and executes it once with a trace
// recorder attached. cost is a ParseOverrides spec.
func matrixRun(t *testing.T, bm *olden.Benchmark, nodes int, faultSpec, cost string) surface {
	t.Helper()
	rec := trace.NewRecorder(nodes)
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
	res, err := p.Run(u, core.RunConfig{Nodes: nodes, Faults: faults, Machine: machine, Trace: rec})
	if err != nil {
		t.Fatalf("%s nodes=%d faults=%q cost=%q: %v", bm.Name, nodes, faultSpec, cost, err)
	}
	var tr bytes.Buffer
	if err := rec.WriteChrome(&tr); err != nil {
		t.Fatal(err)
	}
	return surface{res, tr.String(), rec.Summarize().String()}
}

// goldenCell is one entry of testdata/engine_golden.json; the file's
// captured_from field says what each value was taken from.
type goldenCell struct {
	Program   string `json:"program"`
	Nodes     int    `json:"nodes"`
	Faults    string `json:"faults"`
	Visible   string `json:"visible"`
	Time      int64  `json:"time"`
	Events    int64  `json:"events"`
	Trace     string `json:"trace"`
	Summary   string `json:"summary"`
	Canonical string `json:"canonical"`
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

// checkVisible holds r to the cell's program-visible result.
func (g goldenCell) checkVisible(t *testing.T, r surface) {
	t.Helper()
	if v := r.res.Visible(); v != g.Visible {
		t.Errorf("Visible diverges from the golden cell:\n--- got ---\n%s\n--- golden ---\n%s", v, g.Visible)
	}
}

// check holds r to the whole frozen cell: Visible(), Time, Events and the
// recording (its export, its summary and its canonical form).
func (g goldenCell) check(t *testing.T, r surface) {
	t.Helper()
	g.checkVisible(t, r)
	if r.res.Time != g.Time || r.res.Events != g.Events {
		t.Errorf("time/events moved: %d/%d, golden %d/%d", r.res.Time, r.res.Events, g.Time, g.Events)
	}
	if h := contenthash.Source(r.trace); h != g.Trace {
		t.Errorf("trace export moved: %s, golden %s", h, g.Trace)
	}
	if h := contenthash.Source(r.summary); h != g.Summary {
		t.Errorf("trace summary moved: %s, golden %s", h, g.Summary)
	}
	if h := canonicalTrace(t, r.trace); h != g.Canonical {
		t.Errorf("recorded events moved: canonical %s, golden %s", h, g.Canonical)
	}
}

// TestEngineGoldenMatrix sweeps {Olden benchmark} x {faults off/on}
// on 4 nodes, and the five Olden programs fault-free on 3 and 16 nodes: each
// run must match its golden cell.
func TestEngineGoldenMatrix(t *testing.T) { engineGoldenMatrix(t) }

func engineGoldenMatrix(t *testing.T) {
	type cell struct {
		name   string
		nodes  int
		faults string
	}
	for _, bm := range append(olden.All(), olden.Halo()) {
		cells := []cell{{"", 4, ""}, {"/faults", 4, matrixFaults}}
		if bm.Name != "halo" {
			cells = append(cells, cell{"/nodes=3", 3, ""}, cell{"/nodes=16", 16, ""})
		}
		for _, c := range cells {
			bm, c := bm, c
			t.Run(bm.Name+c.name, func(t *testing.T) {
				golden(t, bm.Name, c.nodes, c.faults).check(t, matrixRun(t, bm, c.nodes, c.faults, ""))
			})
		}
	}
}

// TestPower256Nodes: a quick benchmark on a 256-node machine matches its
// golden cell.
func TestPower256Nodes(t *testing.T) { power256Nodes(t) }

func power256Nodes(t *testing.T) {
	bm := olden.ByName("power")
	golden(t, bm.Name, 256, "").check(t, matrixRun(t, bm, 256, "", ""))
}

// TestHalo128Nodes: the halo ring on 128 nodes, the size earthd's halo jobs
// run at, matches its golden cells with faults off and on.
func TestHalo128Nodes(t *testing.T) { halo128Nodes(t) }

func halo128Nodes(t *testing.T) {
	bm := olden.Halo()
	for _, faultSpec := range []string{"", matrixFaults} {
		name := "plain"
		if faultSpec != "" {
			name = "faults"
		}
		faultSpec := faultSpec
		t.Run(name, func(t *testing.T) {
			golden(t, bm.Name, 128, faultSpec).check(t, matrixRun(t, bm, 128, faultSpec, ""))
		})
	}
}

// TestGoldenGeneralStepOnly runs the three golden tests above once more with
// the frame-local fast path (execLocal) off, against the same cells: every
// instruction the matrix executes then goes through the general step, so the
// two interpreter paths must agree on each one, down to the trace hashes.
func TestGoldenGeneralStepOnly(t *testing.T) {
	defer earthsim.GeneralStepOnly()()
	t.Run("EngineGoldenMatrix", engineGoldenMatrix)
	t.Run("Power256Nodes", power256Nodes)
	t.Run("Halo128Nodes", halo128Nodes)
}

// TestOneNodeAndZeroLatency covers the two edge configurations of the
// machine: one node, where nothing crosses the network, and NetLatency=0,
// where a message arrives in the nanosecond it is sent. Both must compute the
// golden program-visible result (zero latency moves no program-visible
// quantity, so its reference is the plain 4-node cell).
func TestOneNodeAndZeroLatency(t *testing.T) {
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
				golden(t, bm.Name, tc.goldenNodes, "").checkVisible(t, matrixRun(t, bm, tc.nodes, "", tc.cost))
			})
		}
	}
}

// TestFaultDrawsFollowTheMessage: a fault draw is keyed to the hop, not to
// how many draws its node took before, so under a compute-only perturbation
// (InstrCost ±1) every first transmission is dropped on the same hops, and
// every hop both runs send meets the same fate. Retransmissions are left
// out of the first comparison only because whether a timer fires before the
// reply lands follows timing. Perimeter is left out: its transaction
// numbers follow each node's send order, which fiber interleaving changes;
// it needs a key of (issuing fiber, that fiber's issue index).
func TestFaultDrawsFollowTheMessage(t *testing.T) {
	for _, bm := range []*olden.Benchmark{olden.ByName("power"), olden.ByName("health"), olden.ByName("voronoi"), olden.Halo()} {
		t.Run(bm.Name, func(t *testing.T) {
			runs := map[string]map[earthsim.HopKey]bool{}
			for _, cost := range []string{"", "InstrCost=24", "InstrCost=26"} {
				stop := earthsim.RecordDrops()
				matrixRun(t, bm, 4, matrixFaults, cost)
				runs[cost] = stop()
			}
			firstDrops := func(hops map[earthsim.HopKey]bool) map[earthsim.HopKey]bool {
				d := map[earthsim.HopKey]bool{}
				for k, dropped := range hops {
					if dropped && k.Attempt() == 1 {
						d[k] = true
					}
				}
				return d
			}
			base := runs[""]
			if len(firstDrops(base)) == 0 {
				t.Fatal("no first transmission dropped: the property is vacuous")
			}
			for _, cost := range []string{"InstrCost=24", "InstrCost=26"} {
				if a, b := firstDrops(base), firstDrops(runs[cost]); !maps.Equal(a, b) {
					t.Errorf("%s dropped %d first-transmission hops, the base cost %d: the sets differ", cost, len(b), len(a))
				}
				for k, dropped := range runs[cost] {
					if was, ok := base[k]; ok && was != dropped {
						t.Errorf("%s: hop %+v dropped=%v, at the base cost dropped=%v", cost, k, dropped, was)
					}
				}
			}
		})
	}
}

// TestEWMAReducesSpuriousRetransmits pins the adaptive srtt/rttvar
// estimator's spurious-retransmit count on quick power under an aggressive
// timeout. No loss, no reordering: every retransmission under this config is
// spurious by construction. Timeout sits just above the unloaded round-trip,
// so queueing would push a fixed timeout into needless retransmits; a fixed
// 8 µs timeout made 32 here, the EWMA estimator makes 8 (DESIGN §10).
func TestEWMAReducesSpuriousRetransmits(t *testing.T) {
	bm := olden.ByName("power")
	p := core.NewPipeline(core.Options{Optimize: true})
	u, err := p.Compile(bm.Name+".ec", bm.Source(olden.QuickParams(bm)))
	if err != nil {
		t.Fatal(err)
	}
	faults := &earthsim.FaultConfig{Timeout: 8_000, MaxRetries: 50, Seed: 1}
	res, err := p.Run(u, core.RunConfig{Nodes: 4, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("no fault stats")
	}
	if got := res.Faults.SpuriousRetries; got != 8 {
		t.Errorf("spurious retransmits = %d, want 8", got)
	}
}

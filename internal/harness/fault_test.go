package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/trace"
)

const faultTestNodes = 4

func compileOlden(t *testing.T, bm *olden.Benchmark, opt core.Options) (*core.Pipeline, *core.Unit) {
	t.Helper()
	p := core.NewPipeline(opt)
	u, err := p.Compile(bm.Name+".ec", bm.Source(olden.QuickParams(bm)))
	if err != nil {
		t.Fatalf("%s: %v", bm.Name, err)
	}
	return p, u
}

func faultRun(t *testing.T, p *core.Pipeline, u *core.Unit, fc *earthsim.FaultConfig) *earthsim.Result {
	t.Helper()
	r, err := p.Run(u, core.RunConfig{Nodes: faultTestNodes, Faults: fc,
		Fuel: defaultFuel, Deadline: defaultDeadline})
	if err != nil {
		t.Fatalf("run (faults %s): %v", fc, err)
	}
	return r
}

// TestFaultDeterminism: identical seed + spec must give bit-identical runs —
// same simulated time, same program-visible result, same fault counters, and
// a byte-identical trace export.
func TestFaultDeterminism(t *testing.T) {
	bm := olden.ByName("power")
	fc, err := earthsim.ParseFaultSpec("drop=0.05,dup=0.01,delay=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}

	run := func() (*earthsim.Result, []byte) {
		rec := trace.NewRecorder(faultTestNodes)
		p, u := compileOlden(t, bm, core.Options{Optimize: true})
		r, err := p.Run(u, core.RunConfig{Nodes: faultTestNodes, Faults: fc,
			Fuel: defaultFuel, Deadline: defaultDeadline, Trace: rec})
		if err != nil {
			t.Fatalf("run (faults %s): %v", fc, err)
		}
		var buf bytes.Buffer
		if err := rec.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	r1, t1 := run()
	r2, t2 := run()

	if r1.Time != r2.Time {
		t.Errorf("simulated time differs across identical seeds: %d vs %d", r1.Time, r2.Time)
	}
	if r1.Visible() != r2.Visible() {
		t.Errorf("visible result differs:\n%s\n%s", r1.Visible(), r2.Visible())
	}
	if s1, s2 := r1.Faults.String(), r2.Faults.String(); s1 != s2 {
		t.Errorf("fault counters differ:\n%s\n%s", s1, s2)
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace export differs across identical seeds (%d vs %d bytes)", len(t1), len(t2))
	}
}

// TestFaultVisibleEquivalence: across all five benchmarks and two different
// seeds, every faulty run must complete (via retries) with a program-visible
// Result identical to the fault-free run — faults may change timing, never
// semantics.
func TestFaultVisibleEquivalence(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, bm := range olden.All() {
		p, u := compileOlden(t, bm, core.Options{Optimize: true})
		base := faultRun(t, p, u, nil)
		for _, seed := range seeds {
			fc := &earthsim.FaultConfig{Drop: 0.05, Dup: 0.01, Seed: seed}
			r := faultRun(t, p, u, fc)
			if got, want := r.Visible(), base.Visible(); got != want {
				t.Errorf("%s seed=%d: visible result diverged under faults\n got %s\nwant %s",
					bm.Name, seed, got, want)
			}
			if r.Faults == nil || r.Faults.Drops == 0 || r.Faults.Retries == 0 {
				t.Errorf("%s seed=%d: expected injected drops and retries, got %v",
					bm.Name, seed, r.Faults)
			}
		}
	}
}

// TestFaultSweepQuick runs the table `paperbench -faultsweep -scale quick`
// prints: every (benchmark, fault spec) run completes with the fault-free
// program-visible result, the sweep is a pure function of its arguments, and
// each fault-free time is the no-fault `time` cell that
// internal/earthsim/testdata/engine_golden.json froze for the same program
// and machine size, so the two goldens cannot drift apart unnoticed.
func TestFaultSweepQuick(t *testing.T) {
	baseNs := map[string]int64{
		"power":     2810629,
		"tsp":       4003105,
		"health":    3190080,
		"perimeter": 6353976,
		"voronoi":   16835396,
	}
	res, err := MeasureFaultSweep(faultTestNodes, nil, 1, olden.QuickParams)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Errorf("sweep not Ok:\n%s", res)
	}
	if got, want := len(res.Rows), len(baseNs); got != want {
		t.Errorf("sweep has %d rows, want %d", got, want)
	}
	for _, row := range res.Rows {
		if want := baseNs[row.Benchmark]; row.BaseNs != want {
			t.Errorf("%s: BaseNs: got %d, want %d", row.Benchmark, row.BaseNs, want)
		}
		if got, want := len(row.Entries), len(DefaultFaultSpecs); got != want {
			t.Errorf("%s: %d entries, want %d", row.Benchmark, got, want)
		}
		for _, e := range row.Entries {
			if !e.Completed || !e.VisibleOK {
				t.Errorf("%s under %s: completed=%v visibleOK=%v err=%q",
					row.Benchmark, e.Spec, e.Completed, e.VisibleOK, e.Err)
			}
		}
	}
	again, err := MeasureFaultSweep(faultTestNodes, nil, 1, olden.QuickParams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("second sweep differs from the first:\n%s\n%s", res, again)
	}
}

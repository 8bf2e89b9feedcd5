package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/trace"
)

// TestBenchmarksCompile checks every benchmark parses, checks, lowers, and
// optimizes without error.
func TestBenchmarksCompile(t *testing.T) {
	for _, b := range All() {
		src := b.Source(b.DefaultParams)
		for _, optimize := range []bool{false, true} {
			_, err := core.NewPipeline(core.Options{Optimize: optimize}).Compile(b.Name+".ec", src)
			if err != nil {
				t.Errorf("%s (optimize=%v): %v", b.Name, optimize, err)
			}
		}
	}
}

// pipelineRun compiles src through a fresh pipeline and runs it on the
// given machine size; the common path of the semantic tests here.
func pipelineRun(name, src string, optimize bool, nodes int) (*earthsim.Result, error) {
	p := core.NewPipeline(core.Options{Optimize: optimize})
	u, err := p.Compile(name, src)
	if err != nil {
		return nil, err
	}
	return p.Run(u, core.RunConfig{Nodes: nodes})
}

// small returns reduced parameters for quick semantic runs.
func small(b *Benchmark) Params {
	p := b.DefaultParams
	switch b.Name {
	case "power":
		p.Size, p.Iters = 4, 2
	case "perimeter":
		p.Size = 4
	case "tsp":
		p.Size = 32
	case "health":
		p.Size, p.Iters = 3, 20
	case "voronoi":
		p.Size = 48
	}
	return p
}

// runNodes are the machine sizes TestBenchmarksRun covers: powers of two up
// to 16 and one that is not.
var runNodes = []int{1, 2, 3, 4, 8, 16}

// TestBenchmarksRun runs every benchmark on each of runNodes, simple and
// optimized, and demands one program output across all runs — the
// communication optimization must be semantics-preserving, and the machine
// size must not affect results — and the spawn counts spawnPins holds.
func TestBenchmarksRun(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Source(small(b))
			var ref string
			first := true
			for _, optimize := range []bool{false, true} {
				p := core.NewPipeline(core.Options{Optimize: optimize})
				u, err := p.Compile(b.Name+".ec", src)
				if err != nil {
					t.Fatalf("%s optimize=%v: %v", b.Name, optimize, err)
				}
				for i, nodes := range runNodes {
					res, err := p.Run(u, core.RunConfig{Nodes: nodes})
					if err != nil {
						t.Fatalf("%s nodes=%d optimize=%v: %v", b.Name, nodes, optimize, err)
					}
					if pins, ok := spawnPins[b.Name]; ok && res.Counts.Spawns != pins[i] {
						t.Errorf("%s nodes=%d optimize=%v: %d spawns, pinned %d",
							b.Name, nodes, optimize, res.Counts.Spawns, pins[i])
					}
					if first {
						ref = res.Output
						first = false
						t.Logf("output:\n%s", res.Output)
					} else if res.Output != ref {
						t.Errorf("%s nodes=%d optimize=%v: output %q != reference %q",
							b.Name, nodes, optimize, res.Output, ref)
					}
				}
			}
		})
	}
}

// spawnPins are the spawns of each tree-building program at its small size
// on each of runNodes, simple and optimized alike. tsp and voronoi derive
// their decomposition depth from the machine size (levels(2)), so they
// spawn nothing on one node and more with each doubling up to 16 nodes: a
// fixed depth would spawn the same number of fibers at every size. Every
// placed build runs as the arm of a {^ ^} sequence, one spawn each:
// perimeter's four top quadrants, and from 8 nodes on the 16 children they
// place (68 spawns are perimeter_par's), and health's 4 + 16 builds on its
// two spread levels at every size (400 are sim's).
var spawnPins = map[string][]int64{
	"tsp":       {0, 4, 12, 12, 28, 60},
	"voronoi":   {0, 4, 12, 12, 28, 60},
	"perimeter": {72, 72, 72, 72, 88, 88},
	"health":    {420, 420, 420, 420, 420, 420},
}

// TestBuildsOverlap records each tree-building program on 4 nodes at quick
// size, with the recorder earthrun -trace uses, and demands that build runs
// on two different nodes' EUs at the same simulated time: the owners build
// their subtrees at once, not one after another.
func TestBuildsOverlap(t *testing.T) {
	for _, name := range []string{"tsp", "health", "perimeter", "voronoi"} {
		b := ByName(name)
		p := core.NewPipeline(core.Options{Optimize: true})
		u, err := p.Compile(b.Name+".ec", b.Source(QuickParams(b)))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(4)
		if _, err := p.Run(u, core.RunConfig{Nodes: 4, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		var builds []trace.Span
		for _, s := range rec.Spans() {
			if s.Unit == trace.UnitEU && s.Name == "build" {
				builds = append(builds, s)
			}
		}
		overlap := false
		for i, a := range builds {
			for _, c := range builds[i+1:] {
				overlap = overlap || a.Node != c.Node && a.Start < c.End && c.Start < a.End
			}
		}
		if !overlap {
			t.Errorf("%s: no two of its %d build spans on different nodes overlap", name, len(builds))
		}
	}
}

// TestSequentialBaseline checks the sequential build runs and agrees with
// the parallel builds.
func TestSequentialBaseline(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		p := core.NewPipeline(core.Options{})
		u, err := p.Compile(b.Name+".ec", src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		seq, err := p.Run(u, core.RunConfig{Nodes: 1, Sequential: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", b.Name, err)
		}
		par, err := p.Run(u, core.RunConfig{Nodes: 1})
		if err != nil {
			t.Fatalf("%s parallel: %v", b.Name, err)
		}
		if seq.Output != par.Output {
			t.Errorf("%s: sequential output %q != parallel %q", b.Name, seq.Output, par.Output)
		}
		if seq.Time >= par.Time {
			t.Logf("note: %s sequential (%dns) not faster than 1-node parallel (%dns)",
				b.Name, seq.Time, par.Time)
		}
	}
}

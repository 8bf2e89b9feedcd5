package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
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
// size must not affect results. tsp and voronoi derive their decomposition
// depth from the machine size (levels(2)), so their spawn count must be 0 on
// one node and grow strictly with each doubling up to 16 nodes: a fixed
// depth would spawn the same number of fibers at every size.
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
				spawns := map[int]int64{}
				for _, nodes := range runNodes {
					res, err := p.Run(u, core.RunConfig{Nodes: nodes})
					if err != nil {
						t.Fatalf("%s nodes=%d optimize=%v: %v", b.Name, nodes, optimize, err)
					}
					spawns[nodes] = res.Counts.Spawns
					if first {
						ref = res.Output
						first = false
						t.Logf("output:\n%s", res.Output)
					} else if res.Output != ref {
						t.Errorf("%s nodes=%d optimize=%v: output %q != reference %q",
							b.Name, nodes, optimize, res.Output, ref)
					}
				}
				if b.Name != "tsp" && b.Name != "voronoi" {
					continue
				}
				if spawns[1] != 0 {
					t.Errorf("%s optimize=%v: %d spawns on 1 node, want 0", b.Name, optimize, spawns[1])
				}
				for prev, nodes := 1, 2; nodes <= 16; prev, nodes = nodes, 2*nodes {
					if spawns[nodes] <= spawns[prev] {
						t.Errorf("%s optimize=%v: %d spawns on %d nodes, not more than %d on %d",
							b.Name, optimize, spawns[nodes], nodes, spawns[prev], prev)
					}
				}
			}
		})
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

package core

import (
	"fmt"
	"testing"

	"repro/internal/earthsim"
	"repro/internal/olden"
)

// TestFieldClusteringDifferential: clustering blocked structs' hot fields
// changes where words sit, never what a program computes or which
// operations it issues. Every Olden program at tiny, quick and default size
// on 1, 2, 3, 4 and 16 nodes prints the same output and returns the same
// value clustered as in the declared layout, with the same remote and local
// read, write and block-move counts. Simulated time is not compared: a
// block move's length is exactly what clustering changes. -short runs quick
// size only.
func TestFieldClusteringDifferential(t *testing.T) {
	sizes := []string{"tiny", "quick", "default"}
	if testing.Short() {
		sizes = []string{"quick"}
	}
	for _, bm := range olden.All() {
		for _, size := range sizes {
			params := map[string]olden.Params{
				"tiny": semaTinyParams[bm.Name], "quick": olden.QuickParams(bm), "default": bm.DefaultParams,
			}[size]
			src := bm.Source(params)
			declared, err := compile(bm.Name+".ec", src, Options{Optimize: true, DeclaredLayout: true})
			if err != nil {
				t.Fatal(err)
			}
			clustered, err := compile(bm.Name+".ec", src, Options{Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, nodes := range []int{1, 2, 3, 4, 16} {
				cell := fmt.Sprintf("%s/%s/%d nodes", bm.Name, size, nodes)
				want, err := runUnit(declared, RunConfig{Nodes: nodes})
				if err != nil {
					t.Fatalf("%s: declared layout: %v", cell, err)
				}
				got, err := runUnit(clustered, RunConfig{Nodes: nodes})
				if err != nil {
					t.Fatalf("%s: clustered: %v", cell, err)
				}
				if got.Output != want.Output || got.MainRet != want.MainRet {
					t.Errorf("%s: clustered build printed %q and returned %d, declared layout %q and %d",
						cell, got.Output, got.MainRet, want.Output, want.MainRet)
				}
				if g, w := clusterOps(got.Counts), clusterOps(want.Counts); g != w {
					t.Errorf("%s: clustered build issued %+v, declared layout %+v", cell, g, w)
				}
			}
		}
	}
}

// clusterOps are the operation counts field clustering must not move.
type clusterOpCounts struct {
	RemoteReads, RemoteWrites, RemoteBlk int64
	LocalReads, LocalWrites, LocalBlk    int64
}

func clusterOps(c earthsim.Counts) clusterOpCounts {
	return clusterOpCounts{c.RemoteReads, c.RemoteWrites, c.RemoteBlk, c.LocalReads, c.LocalWrites, c.LocalBlk}
}

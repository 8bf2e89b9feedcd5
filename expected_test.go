package repro_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
)

// TestBenchmarkExpectedOutputs holds the registry's sources to the load
// generator's frozen references, benchmark/expected/*.json, which it only
// reads. Each file names one (program, size, iters, nodes) point; the
// current source at that point, compiled optimized and run, must print the
// reference's output and return its main_ret. A source edit that changes a
// program's result fails here, and not only as a fall in the benchmark's
// correct_share.
func TestBenchmarkExpectedOutputs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("benchmark", "expected", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("benchmark/expected holds no references")
	}
	p := core.NewPipeline(core.Options{Optimize: true})
	for _, f := range files {
		f := f
		t.Run(strings.TrimSuffix(filepath.Base(f), ".json"), func(t *testing.T) {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var want struct {
				Program string `json:"program"`
				Size    int    `json:"size"`
				Iters   int    `json:"iters"`
				Nodes   int    `json:"nodes"`
				Output  string `json:"output"`
				MainRet int64  `json:"main_ret"`
			}
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			bm := olden.ByName(want.Program)
			if want.Program == "halo" {
				bm = olden.Halo()
			}
			if bm == nil {
				t.Fatalf("no such program %q", want.Program)
			}
			u, err := p.Compile(bm.Name+".ec", bm.Source(olden.Params{Size: want.Size, Iters: want.Iters}))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(u, core.RunConfig{Nodes: want.Nodes})
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != want.Output || res.MainRet != want.MainRet {
				t.Errorf("output %q, main_ret %d; the reference has %q and %d",
					res.Output, res.MainRet, want.Output, want.MainRet)
			}
		})
	}
}

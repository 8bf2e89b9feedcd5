package harness

import (
	"fmt"
	"strings"

	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
)

// ablationBuilds are the ablation table's rows for every program, in print
// order: the simple reference, the full optimization, its profile-guided
// variant, each optimization component switched off (the declared layout is
// the paper's build, without field clustering), and the block threshold
// swept around the paper's 3.
var ablationBuilds = []build{
	simpleBuild,
	optBuild,
	{name: "PGO", opt: core.Options{Optimize: true}, profile: true},
	{name: "declared layout", opt: core.Options{Optimize: true, DeclaredLayout: true}},
	{name: "no blocking", opt: core.Options{Optimize: true, Sel: commsel.Options{NoBlocking: true}}},
	{name: "no write motion", opt: core.Options{Optimize: true, Sel: commsel.Options{NoWriteMotion: true}}},
	{name: "no read motion", opt: core.Options{Optimize: true, Sel: commsel.Options{NoReadMotion: true}}},
	{name: "threshold 2", opt: core.Options{Optimize: true, Sel: commsel.Options{BlockThreshold: 2}}},
	{name: "threshold 4", opt: core.Options{Optimize: true, Sel: commsel.Options{BlockThreshold: 4}}},
	{name: "threshold 6", opt: core.Options{Optimize: true, Sel: commsel.Options{BlockThreshold: 6}}},
}

// AblationRow is one build of one benchmark.
type AblationRow struct {
	Benchmark string
	Build     string
	Ops       int64 // Figure 10 operations: runtime reads + writes + block moves
	RemoteOps int64 // of those, the ones whose target was on another node
	BlkWords  int64 // words moved by block moves
	TimeNs    int64 // simulated
	// Improvement is the simulated-time gain over the simple build, percent.
	Improvement float64
}

// AblationResult is the ablation table: every benchmark under every build,
// each run's output checked against the simple build's.
type AblationResult struct {
	Nodes int
	Rows  []AblationRow
}

// MeasureAblation runs every benchmark under every ablation build on the
// given machine size. It fails if any build's output differs from simple's.
func MeasureAblation(nodes int, paramsFor func(*olden.Benchmark) olden.Params) (*AblationResult, error) {
	res := &AblationResult{Nodes: nodes}
	rc := core.RunConfig{Nodes: nodes}
	for _, bm := range olden.All() {
		src := bm.Source(paramsFor(bm))
		var simple *earthsim.Result // the first build's run, every later one's reference
		for _, b := range ablationBuilds {
			r, _, err := measure(bm, src, b, rc, simple)
			if err != nil {
				return nil, err
			}
			if simple == nil {
				simple = r
			}
			reads, writes, blk := runtimeOps(r.Counts)
			res.Rows = append(res.Rows, AblationRow{
				Benchmark:   bm.Name,
				Build:       b.name,
				Ops:         reads + writes + blk,
				RemoteOps:   r.Counts.TotalRemote(),
				BlkWords:    r.Counts.BlkWords,
				TimeNs:      r.Time,
				Improvement: 100 * (1 - float64(r.Time)/float64(simple.Time)),
			})
		}
	}
	return res, nil
}

// Row returns benchmark's row for the named build, or nil.
func (r *AblationResult) Row(benchmark, build string) *AblationRow {
	for i := range r.Rows {
		if r.Rows[i].Benchmark == benchmark && r.Rows[i].Build == build {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: builds of each benchmark, output checked against simple, %d nodes\n", r.Nodes)
	fmt.Fprintf(&b, "%-10s %-17s %10s %10s %10s %12s %8s\n",
		"Benchmark", "build", "ops", "remote ops", "blk words", "time (ms)", "impr%")
	for i, row := range r.Rows {
		name := ""
		if i == 0 || r.Rows[i-1].Benchmark != row.Benchmark {
			name = row.Benchmark
		}
		fmt.Fprintf(&b, "%-10s %-17s %10d %10d %10d %12.3f %7.2f%%\n",
			name, row.Build, row.Ops, row.RemoteOps, row.BlkWords,
			float64(row.TimeNs)/1e6, row.Improvement)
	}
	return b.String()
}

package harness

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
)

// tableCache memoizes compiles across the tables' repeated
// (benchmark × machine size) sweeps: Table III compiles each source once
// per optimization mode instead of once per machine size. The fingerprint
// keys on the options, so no two builds collide.
var tableCache = cache.New(0, "")

// build is one way to compile a benchmark: its pipeline options, and whether
// the unit comes from the two-pass profile-guided flow.
type build struct {
	name    string
	opt     core.Options
	profile bool // Pipeline.ProfileCycle: guided by a measured run under the same RunConfig
}

var (
	simpleBuild = build{name: "simple"}
	optBuild    = build{name: "optimized", opt: core.Options{Optimize: true}}
)

// pipeline returns b's pipeline. It compiles through tableCache.
func (b build) pipeline() *core.Pipeline {
	opt := b.opt
	opt.Cache = tableCache
	return core.NewPipeline(opt)
}

// measure is the harness's one build runner: every table compiles, runs and
// checks through it. It compiles src under b, runs the unit under rc, and,
// when ref is non-nil, fails unless the run printed exactly ref's output.
func measure(bm *olden.Benchmark, src string, b build, rc core.RunConfig, ref *earthsim.Result) (*earthsim.Result, *core.Unit, error) {
	p := b.pipeline()
	var u *core.Unit
	var err error
	if b.profile {
		u, _, err = p.ProfileCycle(bm.Name+".ec", src, rc)
	} else {
		u, err = p.Compile(bm.Name+".ec", src)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", bm.Name, b.name, err)
	}
	res, err := p.Run(u, rc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", bm.Name, b.name, err)
	}
	if ref != nil && res.Output != ref.Output {
		return nil, nil, fmt.Errorf("%s: %s output diverged:\nreference: %q\n%s: %q",
			bm.Name, b.name, ref.Output, b.name, res.Output)
	}
	return res, u, nil
}

// runtimeOps is a run's Figure 10 operations by kind: every read, write and
// block move issued through the EARTH runtime, whether its target turned out
// remote or local (pseudo-remote), as both cost a runtime call.
func runtimeOps(c earthsim.Counts) (reads, writes, blk int64) {
	return c.RemoteReads + c.LocalReads, c.RemoteWrites + c.LocalWrites, c.RemoteBlk + c.LocalBlk
}

// Table2 renders the benchmark registry (the paper's Table II), with both
// the paper's problem sizes and this harness's scaled defaults.
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Benchmark Programs\n")
	fmt.Fprintf(&b, "%-10s %-62s %-28s %s\n", "Benchmark", "Description", "Paper size", "Harness size")
	for _, bm := range olden.All() {
		fmt.Fprintf(&b, "%-10s %-62s %-28s %s\n",
			bm.Name, bm.Description, bm.PaperSize, harnessSize(bm))
	}
	return b.String()
}

func harnessSize(bm *olden.Benchmark) string {
	p := bm.DefaultParams
	switch bm.Name {
	case "power":
		return fmt.Sprintf("%d laterals x5x10 (%d leaves), %d iters", p.Size, p.Size*50, p.Iters)
	case "perimeter":
		return fmt.Sprintf("depth %d (%dx%d image)", p.Size, 1<<p.Size, 1<<p.Size)
	case "tsp":
		return fmt.Sprintf("%d cities", p.Size)
	case "health":
		return fmt.Sprintf("%d levels, %d iters", p.Size, p.Iters)
	case "voronoi":
		return fmt.Sprintf("%d points", p.Size)
	}
	return ""
}

// RunPair compiles and runs one benchmark in simple and optimized form on
// the given machine size, verifying the outputs agree.
func RunPair(bm *olden.Benchmark, params olden.Params, nodes int) (simple, opt *earthsim.Result, err error) {
	simple, opt, _, err = runPair(bm, bm.Source(params), core.RunConfig{Nodes: nodes})
	return simple, opt, err
}

// runPair is RunPair on a generated source, plus the optimized unit.
func runPair(bm *olden.Benchmark, src string, rc core.RunConfig) (simple, opt *earthsim.Result, ou *core.Unit, err error) {
	if simple, _, err = measure(bm, src, simpleBuild, rc, nil); err != nil {
		return nil, nil, nil, err
	}
	if opt, ou, err = measure(bm, src, optBuild, rc, simple); err != nil {
		return nil, nil, nil, err
	}
	return simple, opt, ou, nil
}

// -------------------------------------------------------------- Figure 10 ---

// Fig10Row is one benchmark's dynamic communication counts.
type Fig10Row struct {
	Benchmark    string
	TotalSimple  int64 // total communication ops, simple version
	SimpleReads  int64
	SimpleWrites int64
	SimpleBlk    int64
	OptReads     int64
	OptWrites    int64
	OptBlk       int64
	// Of each build's read-data, write-data and blkmov operations, those
	// whose target was another node; the rest hit the issuing node
	// (pseudo-remote).
	SimpleRemote int64
	OptRemote    int64
	// Remaining message classes, beyond the figure's three data columns
	// (these are unchanged by the optimization in principle; the table
	// prints both sides so regressions show).
	SimpleShared int64
	SimpleRPC    int64
	SimpleAlloc  int64
	OptShared    int64
	OptRPC       int64
	OptAlloc     int64
	// The optimized build's remote accesses entering placement (§4.1) and
	// its selection totals (§4.2), read from its unit.
	CandidateReads  int
	CandidateWrites int
	Selection       commsel.FuncReport
}

// OptTotal is the optimized version's total.
func (r Fig10Row) OptTotal() int64 { return r.OptReads + r.OptWrites + r.OptBlk }

// Normalized returns the optimized total normalized to simple = 100.
func (r Fig10Row) Normalized() float64 {
	if r.TotalSimple == 0 {
		return 0
	}
	return 100 * float64(r.OptTotal()) / float64(r.TotalSimple)
}

// Fig10Result holds the Figure 10 reproduction.
type Fig10Result struct {
	Nodes int
	Rows  []Fig10Row
}

// MeasureFig10 runs every benchmark, simple and optimized, counting dynamic
// communication operations (read-data / write-data / blkmov), the paper's
// Figure 10. Operations through the EARTH runtime are counted whether the
// target is remote or local (pseudo-remote), as both cost runtime calls.
func MeasureFig10(nodes int, paramsFor func(*olden.Benchmark) olden.Params) (*Fig10Result, error) {
	res := &Fig10Result{Nodes: nodes}
	for _, bm := range olden.All() {
		row, err := MeasureFig10Single(bm, paramsFor(bm), nodes)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// String renders Figure 10 as a normalized table (simple = 100).
func (r *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: Dynamic communication counts (normalized, simple = 100), %d nodes\n", r.Nodes)
	fmt.Fprintf(&b, "%-10s %12s | %8s %8s %8s | %8s %8s %8s | %9s\n",
		"Benchmark", "simple ops", "s.read", "s.write", "s.blk", "o.read", "o.write", "o.blk", "optimized")
	for _, row := range r.Rows {
		norm := func(v int64) float64 {
			if row.TotalSimple == 0 {
				return 0
			}
			return 100 * float64(v) / float64(row.TotalSimple)
		}
		fmt.Fprintf(&b, "%-10s %12d | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f | %8.1f%%\n",
			row.Benchmark, row.TotalSimple,
			norm(row.SimpleReads), norm(row.SimpleWrites), norm(row.SimpleBlk),
			norm(row.OptReads), norm(row.OptWrites), norm(row.OptBlk),
			row.Normalized())
	}
	b.WriteString(r.remoteSplit())
	b.WriteString(r.classBreakdown())
	b.WriteString(r.selectionTable())
	return b.String()
}

// remoteSplit renders the figure's data operations split by where their
// target was: another node (remote) or the issuing node (pseudo-remote, a
// runtime call that stays local).
func (r *Fig10Result) remoteSplit() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nRemote / pseudo-remote split (absolute data ops, simple / optimized):\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %8s | %10s %10s %8s\n",
		"Benchmark", "s.remote", "s.pseudo", "s.rem%", "o.remote", "o.pseudo", "o.rem%")
	share := func(part, total int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %7.1f%% | %10d %10d %7.1f%%\n",
			row.Benchmark,
			row.SimpleRemote, row.TotalSimple-row.SimpleRemote, share(row.SimpleRemote, row.TotalSimple),
			row.OptRemote, row.OptTotal()-row.OptRemote, share(row.OptRemote, row.OptTotal()))
	}
	return b.String()
}

// classBreakdown renders the remaining message classes (absolute counts,
// simple vs optimized) under the normalized figure.
func (r *Fig10Result) classBreakdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nOther message classes (absolute ops, simple / optimized):\n")
	fmt.Fprintf(&b, "%-10s %10s %10s | %10s %10s | %10s %10s\n",
		"Benchmark", "s.shared", "o.shared", "s.rpc", "o.rpc", "s.alloc", "o.alloc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10d %10d | %10d %10d | %10d %10d\n",
			row.Benchmark,
			row.SimpleShared, row.OptShared,
			row.SimpleRPC, row.OptRPC,
			row.SimpleAlloc, row.OptAlloc)
	}
	return b.String()
}

// selectionTable renders the optimized builds' placement candidates and
// selection results.
func (r *Fig10Result) selectionTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nSelection results, optimized build:\n")
	fmt.Fprintf(&b, "%-10s %12s %12s | %10s %10s %10s | %10s %10s\n",
		"Benchmark", "r.cand", "w.cand", "r.pipe", "r.blk", "r.elim", "w.pipe", "w.blk")
	for _, row := range r.Rows {
		s := row.Selection
		fmt.Fprintf(&b, "%-10s %12d %12d | %10d %10d %10d | %10d %10d\n",
			row.Benchmark, row.CandidateReads, row.CandidateWrites,
			s.PipelinedReads, s.BlockedReads, s.ReadsEliminated,
			s.PipelinedWrites, s.BlockedWrites)
	}
	return b.String()
}

// -------------------------------------------------------------- Table III ---

// Table3Entry is one (benchmark, processor-count) measurement.
type Table3Entry struct {
	Procs    int
	SimpleNs int64
	OptNs    int64
	// Each build's data operations whose target was another node (as in
	// Figure 10's remote split).
	SimpleRemote int64
	OptRemote    int64
	SimpleSpeed  float64 // vs sequential
	OptSpeed     float64
	Improvement  float64 // percent
}

// Table3Row is one benchmark's scaling results.
type Table3Row struct {
	Benchmark    string
	SequentialNs int64
	Entries      []Table3Entry
	PaperImpr16  float64
}

// Table3Result is the reproduction of the paper's Table III.
type Table3Result struct {
	Rows []Table3Row
}

// DefaultProcs are the machine sizes of Table III.
var DefaultProcs = []int{1, 2, 4, 8, 16}

// MeasureTable3 reproduces Table III: sequential baseline plus simple and
// optimized parallel versions on each machine size.
func MeasureTable3(procs []int, paramsFor func(*olden.Benchmark) olden.Params) (*Table3Result, error) {
	if len(procs) == 0 {
		procs = DefaultProcs
	}
	res := &Table3Result{}
	for _, bm := range olden.All() {
		src := bm.Source(paramsFor(bm))
		seq, _, err := measure(bm, src, simpleBuild, core.RunConfig{Nodes: 1, Sequential: true}, nil)
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			Benchmark:    bm.Name,
			SequentialNs: seq.Time,
			PaperImpr16:  bm.PaperImprovement16,
		}
		for _, p := range procs {
			rc := core.RunConfig{Nodes: p}
			simple, _, err := measure(bm, src, simpleBuild, rc, seq)
			if err != nil {
				return nil, err
			}
			opt, _, err := measure(bm, src, optBuild, rc, simple)
			if err != nil {
				return nil, err
			}
			e := Table3Entry{
				Procs:        p,
				SimpleNs:     simple.Time,
				OptNs:        opt.Time,
				SimpleRemote: simple.Counts.TotalRemote(),
				OptRemote:    opt.Counts.TotalRemote(),
			}
			e.SimpleSpeed = float64(seq.Time) / float64(simple.Time)
			e.OptSpeed = float64(seq.Time) / float64(opt.Time)
			e.Improvement = 100 * (1 - float64(opt.Time)/float64(simple.Time))
			row.Entries = append(row.Entries, e)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders Table III in the paper's layout.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: Performance Improvement Results (simulated EARTH-MANNA)\n")
	fmt.Fprintf(&b, "%-10s %6s %12s %12s %12s %10s %10s %8s %8s %8s\n",
		"Benchmark", "procs", "seq (ms)", "simple (ms)", "opt (ms)",
		"s.remote", "o.remote", "s.speed", "o.speed", "impr%")
	for _, row := range r.Rows {
		for i, e := range row.Entries {
			name, seq := "", ""
			if i == 0 {
				name = row.Benchmark
				seq = fmt.Sprintf("%.2f", float64(row.SequentialNs)/1e6)
			}
			fmt.Fprintf(&b, "%-10s %6d %12s %12.2f %12.2f %10d %10d %8.2f %8.2f %7.2f%%\n",
				name, e.Procs, seq,
				float64(e.SimpleNs)/1e6, float64(e.OptNs)/1e6,
				e.SimpleRemote, e.OptRemote,
				e.SimpleSpeed, e.OptSpeed, e.Improvement)
		}
		last := row.Entries[len(row.Entries)-1]
		fmt.Fprintf(&b, "%-10s %56s improvement at %d procs: %.2f%% (paper: %.2f%%)\n",
			"", "", last.Procs, last.Improvement, row.PaperImpr16)
	}
	return b.String()
}

// DefaultParams returns each benchmark's default (scaled-down) parameters.
func DefaultParams(bm *olden.Benchmark) olden.Params { return bm.DefaultParams }

// MeasureFig10Single measures the Figure 10 quantities for one benchmark,
// plus the supplementary class breakdown and selection counts.
func MeasureFig10Single(bm *olden.Benchmark, params olden.Params, nodes int) (*Fig10Row, error) {
	simple, opt, ou, err := runPair(bm, bm.Source(params), core.RunConfig{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	row := &Fig10Row{
		Benchmark:       bm.Name,
		SimpleRemote:    simple.Counts.TotalRemote(),
		OptRemote:       opt.Counts.TotalRemote(),
		SimpleShared:    simple.Counts.SharedOps,
		SimpleRPC:       simple.Counts.RPCs,
		SimpleAlloc:     simple.Counts.Allocs,
		OptShared:       opt.Counts.SharedOps,
		OptRPC:          opt.Counts.RPCs,
		OptAlloc:        opt.Counts.Allocs,
		CandidateReads:  ou.Placement.CandidateReads,
		CandidateWrites: ou.Placement.CandidateWrites,
		Selection:       ou.Report.Totals(),
	}
	row.SimpleReads, row.SimpleWrites, row.SimpleBlk = runtimeOps(simple.Counts)
	row.OptReads, row.OptWrites, row.OptBlk = runtimeOps(opt.Counts)
	row.TotalSimple = row.SimpleReads + row.SimpleWrites + row.SimpleBlk
	return row, nil
}

// Bars renders Figure 10 as normalized ASCII bars (the paper's figure is a
// bar chart): for each benchmark, the simple bar (always full height) and
// the optimized bar, segmented into read-data (r), write-data (w) and
// blkmov (b) components.
func (r *Fig10Result) Bars() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (bars): normalized communication counts, simple = 100\n")
	const width = 50
	seg := func(reads, writes, blk, total int64) string {
		if total == 0 {
			return ""
		}
		n := func(v int64) int { return int(float64(v) / float64(total) * width) }
		return strings.Repeat("r", n(reads)) + strings.Repeat("w", n(writes)) +
			strings.Repeat("b", n(blk))
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s simple    |%-*s| 100.0%%\n", row.Benchmark, width,
			seg(row.SimpleReads, row.SimpleWrites, row.SimpleBlk, row.TotalSimple))
		fmt.Fprintf(&b, "%-10s optimized |%-*s| %.1f%%\n", "", width,
			seg(row.OptReads, row.OptWrites, row.OptBlk, row.TotalSimple),
			row.Normalized())
	}
	return b.String()
}

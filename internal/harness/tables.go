package harness

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/trace"
)

// tableCache memoizes compiles across the tables' repeated
// (benchmark × machine size) sweeps: Table III compiles each source once
// per optimization mode instead of once per machine size. The fingerprint
// keys on the options, so simple/optimized/stats builds never collide.
var tableCache = cache.New(0, "")

// SimWorkers is the worker count every harness simulator run hands the
// event loop (core.RunConfig.SimWorkers; paperbench's -sim-j). All
// measurements are bit-identical for every value — the event loop's
// determinism contract — so this is purely a host-side throughput knob for
// the sweeps.
var SimWorkers int

// compileUnit is the harness's one compile path: every table builds its
// units through the same CompileRequest surface (and shared cache) that
// earthcc, earthrun, and earthd use.
func compileUnit(p *core.Pipeline, name, src string) (*core.Unit, error) {
	res, err := p.Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, err
	}
	return res.Unit, nil
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
	simple, opt, _, err = runPair(bm, params, nodes, false)
	return simple, opt, err
}

// runPair is RunPair plus, when stats is set, the optimized build's compile
// statistics.
func runPair(bm *olden.Benchmark, params olden.Params, nodes int, stats bool) (simple, opt *earthsim.Result, cs *trace.CompileStats, err error) {
	src := bm.Source(params)
	sp := core.NewPipeline(core.Options{Cache: tableCache})
	su, err := compileUnit(sp, bm.Name+".ec", src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s simple: %w", bm.Name, err)
	}
	simple, err = sp.Run(su, core.RunConfig{Nodes: nodes, SimWorkers: SimWorkers})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s simple: %w", bm.Name, err)
	}
	op := core.NewPipeline(core.Options{Optimize: true, Stats: stats, Cache: tableCache})
	ou, err := compileUnit(op, bm.Name+".ec", src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s optimized: %w", bm.Name, err)
	}
	opt, err = op.Run(ou, core.RunConfig{Nodes: nodes, SimWorkers: SimWorkers})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s optimized: %w", bm.Name, err)
	}
	if simple.Output != opt.Output {
		return nil, nil, nil, fmt.Errorf("%s: optimized output diverged:\nsimple: %q\nopt:    %q",
			bm.Name, simple.Output, opt.Output)
	}
	return simple, opt, ou.Stats, nil
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
	// Remaining message classes, beyond the figure's three data columns
	// (these are unchanged by the optimization in principle; the table
	// prints both sides so regressions show).
	SimpleShared int64
	SimpleRPC    int64
	SimpleAlloc  int64
	OptShared    int64
	OptRPC       int64
	OptAlloc     int64
	// Stats is the optimized build's compile statistics (per-phase timings
	// plus placement/selection counters).
	Stats *trace.CompileStats `json:",omitempty"`
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
	b.WriteString(r.classBreakdown())
	b.WriteString(r.phaseTable())
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

// phaseTable renders per-benchmark compiler phase timings and selection
// counters for the optimized builds (rows without stats are skipped).
func (r *Fig10Result) phaseTable() string {
	// Collect the union of phase names in first-seen order so columns line
	// up even if a benchmark skips a phase.
	var names []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if row.Stats == nil {
			continue
		}
		for _, p := range row.Stats.Phases {
			if !seen[p.Name] {
				seen[p.Name] = true
				names = append(names, p.Name)
			}
		}
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nCompiler phase timings, optimized build (ms):\n")
	fmt.Fprintf(&b, "%-10s", "Benchmark")
	for _, n := range names {
		fmt.Fprintf(&b, " %9s", n)
	}
	fmt.Fprintf(&b, " %9s\n", "total")
	for _, row := range r.Rows {
		if row.Stats == nil {
			continue
		}
		byName := map[string]int64{}
		for _, p := range row.Stats.Phases {
			byName[p.Name] += p.Ns
		}
		fmt.Fprintf(&b, "%-10s", row.Benchmark)
		for _, n := range names {
			fmt.Fprintf(&b, " %9.3f", float64(byName[n])/1e6)
		}
		fmt.Fprintf(&b, " %9.3f\n", float64(row.Stats.TotalNs())/1e6)
	}
	fmt.Fprintf(&b, "\nSelection results, optimized build:\n")
	fmt.Fprintf(&b, "%-10s %12s %12s | %10s %10s %10s | %10s %10s\n",
		"Benchmark", "r.cand", "w.cand", "r.pipe", "r.blk", "r.elim", "w.pipe", "w.blk")
	for _, row := range r.Rows {
		if row.Stats == nil {
			continue
		}
		s := row.Stats
		fmt.Fprintf(&b, "%-10s %12d %12d | %10d %10d %10d | %10d %10d\n",
			row.Benchmark, s.CandidateReads, s.CandidateWrites,
			s.PipelinedReads, s.BlockedReads, s.ReadsEliminated,
			s.PipelinedWrites, s.BlockedWrites)
	}
	return b.String()
}

// -------------------------------------------------------------- Table III ---

// Table3Entry is one (benchmark, processor-count) measurement.
type Table3Entry struct {
	Procs       int
	SimpleNs    int64
	OptNs       int64
	SimpleSpeed float64 // vs sequential
	OptSpeed    float64
	Improvement float64 // percent
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
		params := paramsFor(bm)
		src := bm.Source(params)
		p := core.NewPipeline(core.Options{Cache: tableCache})
		u, err := compileUnit(p, bm.Name+".ec", src)
		if err != nil {
			return nil, err
		}
		seq, err := p.Run(u, core.RunConfig{Nodes: 1, Sequential: true})
		if err != nil {
			return nil, fmt.Errorf("%s sequential: %w", bm.Name, err)
		}
		row := Table3Row{
			Benchmark:    bm.Name,
			SequentialNs: seq.Time,
			PaperImpr16:  bm.PaperImprovement16,
		}
		for _, p := range procs {
			simple, opt, err := RunPair(bm, params, p)
			if err != nil {
				return nil, err
			}
			if seq.Output != simple.Output {
				return nil, fmt.Errorf("%s: sequential output diverged from parallel", bm.Name)
			}
			e := Table3Entry{
				Procs:    p,
				SimpleNs: simple.Time,
				OptNs:    opt.Time,
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
	fmt.Fprintf(&b, "%-10s %6s %12s %12s %12s %8s %8s %8s\n",
		"Benchmark", "procs", "seq (ms)", "simple (ms)", "opt (ms)",
		"s.speed", "o.speed", "impr%")
	for _, row := range r.Rows {
		for i, e := range row.Entries {
			name, seq := "", ""
			if i == 0 {
				name = row.Benchmark
				seq = fmt.Sprintf("%.2f", float64(row.SequentialNs)/1e6)
			}
			fmt.Fprintf(&b, "%-10s %6d %12s %12.2f %12.2f %8.2f %8.2f %7.2f%%\n",
				name, e.Procs, seq,
				float64(e.SimpleNs)/1e6, float64(e.OptNs)/1e6,
				e.SimpleSpeed, e.OptSpeed, e.Improvement)
		}
		last := row.Entries[len(row.Entries)-1]
		fmt.Fprintf(&b, "%-10s %34s improvement at %d procs: %.2f%% (paper: %.2f%%)\n",
			"", "", last.Procs, last.Improvement, row.PaperImpr16)
	}
	return b.String()
}

// DefaultParams returns each benchmark's default (scaled-down) parameters.
func DefaultParams(bm *olden.Benchmark) olden.Params { return bm.DefaultParams }

// MeasureFig10Single measures the Figure 10 quantities for one benchmark,
// plus the supplementary class breakdown and compile statistics.
func MeasureFig10Single(bm *olden.Benchmark, params olden.Params, nodes int) (*Fig10Row, error) {
	simple, opt, cs, err := runPair(bm, params, nodes, true)
	if err != nil {
		return nil, err
	}
	row := &Fig10Row{
		Benchmark:    bm.Name,
		SimpleReads:  simple.Counts.RemoteReads + simple.Counts.LocalReads,
		SimpleWrites: simple.Counts.RemoteWrites + simple.Counts.LocalWrites,
		SimpleBlk:    simple.Counts.RemoteBlk + simple.Counts.LocalBlk,
		OptReads:     opt.Counts.RemoteReads + opt.Counts.LocalReads,
		OptWrites:    opt.Counts.RemoteWrites + opt.Counts.LocalWrites,
		OptBlk:       opt.Counts.RemoteBlk + opt.Counts.LocalBlk,
		SimpleShared: simple.Counts.SharedOps,
		SimpleRPC:    simple.Counts.RPCs,
		SimpleAlloc:  simple.Counts.Allocs,
		OptShared:    opt.Counts.SharedOps,
		OptRPC:       opt.Counts.RPCs,
		OptAlloc:     opt.Counts.Allocs,
		Stats:        cs,
	}
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

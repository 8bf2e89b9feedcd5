package core

import (
	"fmt"
	"time"

	"repro/internal/commsel"
	"repro/internal/earthc"
	"repro/internal/earthsim"
	"repro/internal/layout"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/placement"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/rwsets"
	"repro/internal/sema"
	"repro/internal/simple"
	"repro/internal/threaded"
)

// Pipeline is the unified compile-and-run entry point: construct one from
// Options, then call Do (or Compile) / Run / ProfileCycle. A Pipeline
// is cheap and safe to reuse across units. The sink every compile and run
// feeds (Options.Metrics) plugs in at construction; the sink of one run
// (RunConfig.Trace) rides on its RunConfig and is read once Run has
// returned, and a compile's phase spans ride on its CompileResult.
type Pipeline struct {
	opt Options
}

// NewPipeline builds a pipeline from the given options.
func NewPipeline(opt Options) *Pipeline { return &Pipeline{opt: opt} }

// Options returns the pipeline's configuration.
func (p *Pipeline) Options() Options { return p.opt }

// Compile runs the full pipeline over EARTH-C source text: Do without a
// profile, cache policy or cache outcome, for call-site brevity.
func (p *Pipeline) Compile(name, src string) (*Unit, error) {
	res, err := p.Do(CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, err
	}
	return res.Unit, nil
}

// observeCompile feeds a fresh compile's phase spans into the metrics
// registry: one histogram per phase, and the compile's wall time from the
// first phase's start to the last one's end.
func (p *Pipeline) observeCompile(phases []Phase) {
	reg := p.opt.Metrics
	if reg == nil {
		return
	}
	reg.Counter("earth_compiles_total", "Units compiled by this pipeline.").Inc()
	for _, ph := range phases {
		reg.Histogram(fmt.Sprintf("earth_compile_phase_ns{phase=%q}", ph.Name),
			"Host wall-clock time per compiler phase.").Observe(ph.End.Sub(ph.Start).Nanoseconds())
	}
	reg.Histogram("earth_compile_ns", "Host wall-clock time per compile.").
		Observe(phases[len(phases)-1].End.Sub(phases[0].Start).Nanoseconds())
}

// phaseClock names the compile phase running now, for recoverPhase, and
// appends each finished phase's span to *spans.
type phaseClock struct {
	spans *[]Phase
	name  string
	start time.Time
}

func (c *phaseClock) begin(name string) {
	c.name = name
	c.start = time.Now()
}

func (c *phaseClock) end() {
	*c.spans = append(*c.spans, Phase{Name: c.name, Start: c.start, End: time.Now()})
}

// recoverPhase converts a panic escaping a compile phase into a positioned
// error naming the file, the phase, and — when the panic left a per-function
// loop as a simple.FuncPanic — the function being processed. Internal bugs
// on arbitrary user input thereby surface as diagnostics, not stack traces.
func recoverPhase(file string, clk *phaseClock, u **Unit, err *error) {
	r := recover()
	if r == nil {
		return
	}
	where := ""
	if fp, ok := r.(simple.FuncPanic); ok {
		where = " in function " + fp.Func
		r = fp.Value
	}
	*u = nil
	*err = fmt.Errorf("%s: internal error during %s%s: %v", file, clk.name, where, r)
}

// build compiles a parsed file: McCAT Phase I restructuring, semantic
// analysis, lowering and the analyses, and under opt.Optimize the field
// layout, placement and selection.
func (p *Pipeline) build(file *earthc.File, opt Options, prof *profile.Data, clk *phaseClock) (u *Unit, err error) {
	defer recoverPhase(file.Name, clk, &u, &err)
	clk.begin("inline")
	if !opt.NoInline {
		earthc.InlineFunctions(file, earthc.InlineOptions{})
	}
	clk.end()
	clk.begin("restructure")
	for _, fn := range file.Funcs {
		if err := earthc.DesugarLoops(fn); err != nil {
			return nil, fmt.Errorf("%s: %w", file.Name, err)
		}
		if err := earthc.EliminateGotos(fn); err != nil {
			return nil, fmt.Errorf("%s: %w", file.Name, err)
		}
	}
	clk.end()
	// Each phase below runs once. Locality needs no points-to result, so
	// it runs on the declared layout straight after lowering, an optimized
	// build then lays its structs out on its verdicts, and points-to,
	// read/write sets, placement and selection see only the final layout.
	clk.begin("sema")
	sm, err := sema.Check(file)
	if err != nil {
		return nil, err
	}
	clk.end()
	clk.begin("lower")
	sp, err := lower.Declared(sm)
	if err != nil {
		return nil, err
	}
	// Site IDs are assigned on the freshly-lowered SIMPLE form, before any
	// transformation: the instrumented (unoptimized) compile and a later
	// profile-guided compile of the same source then agree on every key.
	simple.AssignSites(sp)
	clk.end()
	u = &Unit{Name: file.Name, File: file, Sema: sm, Simple: sp}
	clk.begin("locality")
	u.Locality = locality.Analyze(sp)
	clk.end()
	if opt.Optimize && !opt.DeclaredLayout {
		clk.begin("layout")
		layout.Cluster(sp, u.Locality, opt.Sel.Threshold())
		clk.end()
	}
	clk.begin("pointsto")
	u.PointsTo, err = pointsto.Analyze(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file.Name, err)
	}
	clk.end()
	clk.begin("rwsets")
	u.RWSets = rwsets.Analyze(sp, u.PointsTo)
	clk.end()
	if opt.Optimize {
		// A nil *profile.Data must reach placement as a nil interface: a
		// non-nil provider marks the placement profiled.
		var fp placement.FreqProvider
		if prof != nil {
			fp = prof
		}
		clk.begin("placement")
		u.Placement = placement.AnalyzeProfiled(sp, u.RWSets, u.Locality, fp)
		clk.end()
		clk.begin("commsel")
		u.Report = commsel.Transform(sp, u.Placement, u.RWSets, u.Locality, opt.Sel)
		clk.end()
	}
	return u, nil
}

// Run generates threaded code for the unit and executes it on a simulated
// EARTH-MANNA machine, starting at main() on node 0.
func (p *Pipeline) Run(u *Unit, rc RunConfig) (*earthsim.Result, error) {
	if rc.Sequential && rc.Nodes > 1 {
		return nil, fmt.Errorf("core: the sequential baseline uses direct local memory accesses and is only valid on 1 node (got %d)", rc.Nodes)
	}
	tp, err := u.Threaded(threaded.Options{Sequential: rc.Sequential, Profile: rc.Profile})
	if err != nil {
		return nil, err
	}
	cfg := earthsim.DefaultConfig(rc.Nodes)
	if rc.Machine != nil {
		cfg = *rc.Machine
		cfg.Nodes = rc.Nodes
	}
	if rc.Fuel > 0 {
		cfg.Fuel = rc.Fuel
	}
	if rc.Faults != nil {
		cfg.Faults = rc.Faults
	}
	m := earthsim.New(tp, cfg)
	if rc.Deadline > 0 {
		m.SetDeadline(rc.Deadline)
	}
	if rc.Context != nil {
		// Fail fast if the job was cancelled while queued — don't charge a
		// run start for work that will trap on the first poll anyway.
		if err := rc.Context.Err(); err != nil {
			return nil, fmt.Errorf("earthsim: %w: %v before run start", earthsim.ErrCanceled, err)
		}
		m.SetContext(rc.Context)
	}
	if rc.Trace != nil {
		m.SetTrace(rc.Trace)
	}
	reg := p.opt.Metrics
	reg.Counter("earth_runs_started_total", "Simulator runs started.").Inc()
	res, err := m.Run()
	if err != nil {
		reg.Counter("earth_run_errors_total", "Simulator runs that failed (trap, deadlock, or limit).").Inc()
		return nil, err
	}
	// Run metrics are simulated quantities only — never host wall time — so
	// a fixed unit + RunConfig fills a fresh registry with identical bytes.
	reg.Counter("earth_runs_completed_total", "Simulator runs completed.").Inc()
	reg.Counter("earth_guest_instructions_total", "Guest instructions retired across runs.").
		Add(res.Counts.Instructions)
	reg.Counter("earth_remote_ops_total", "Remote communication operations across runs.").
		Add(res.Counts.TotalRemote())
	reg.Histogram("earth_sim_time_ns", "Simulated time per completed run.").Observe(res.Time)
	if res.Faults != nil {
		reg.Counter("earth_fault_retries_total", "Reliable-messaging retransmissions across runs.").
			Add(res.Faults.Retries)
		reg.Counter("earth_fault_retries_spurious_total", "Retransmissions that were unnecessary in hindsight across runs.").
			Add(res.Faults.SpuriousRetries)
		reg.Counter("earth_fault_drops_total", "Wire drops injected across runs.").
			Add(res.Faults.Drops)
	}
	if res.Profile != nil {
		res.Profile.SourceHash = u.SourceHash
	}
	return res, nil
}

// ProfileCycle runs the two-pass profile-guided flow: compile the program
// unoptimized with instrumentation, run it once under rc to collect a
// profile, then recompile optimizing with the measured frequencies. It
// returns the profile-guided unit and the profile it was built from.
func (p *Pipeline) ProfileCycle(name, src string, rc RunConfig) (*Unit, *profile.Data, error) {
	gen := *p
	gen.opt.Optimize = false
	gres, err := gen.Do(CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, nil, err
	}
	grc := rc
	grc.Profile = true
	// The instrumented run is a measurement pass, not the run of interest:
	// keep it out of the trace recorder.
	grc.Trace = nil
	res, err := gen.Run(gres.Unit, grc)
	if err != nil {
		return nil, nil, fmt.Errorf("core: instrumented run failed: %w", err)
	}
	if res.Profile == nil {
		return nil, nil, fmt.Errorf("core: instrumented run produced no profile")
	}
	use := *p
	use.opt.Optimize = true
	ures, err := use.Do(CompileRequest{Name: name, Source: src, Profile: res.Profile})
	if err != nil {
		return nil, nil, err
	}
	return ures.Unit, res.Profile, nil
}

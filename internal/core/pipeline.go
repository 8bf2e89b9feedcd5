package core

import (
	"fmt"
	"time"

	"repro/internal/commsel"
	"repro/internal/earthc"
	"repro/internal/earthsim"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/rwsets"
	"repro/internal/sema"
	"repro/internal/simple"
	"repro/internal/threaded"
	"repro/internal/trace"
)

// Pipeline is the unified compile-and-run entry point: construct one from
// Options, then call Do (or Compile) / Run / ProfileCycle. A Pipeline
// is cheap and safe to reuse across units. The sinks every compile and run
// feeds (Options.Stats, Options.Metrics) plug in at construction; the sinks
// of one run (RunConfig.Trace, RunConfig.Sampler) ride on its RunConfig and
// are read once Run has returned.
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

// newStats returns a stats collector when any sink wants one (Unit.Stats
// via Options.Stats, or the metrics registry's per-phase histograms); its
// nil-receiver methods make the disabled case free.
func (p *Pipeline) newStats() *trace.CompileStats {
	if !p.opt.Stats && p.opt.Metrics == nil {
		return nil
	}
	return &trace.CompileStats{}
}

// finishCompile flushes a successful compile into the metrics registry and
// strips the stats collector when the caller didn't ask for it (it may have
// been allocated for the registry's benefit only).
func (p *Pipeline) finishCompile(u *Unit) *Unit {
	if reg := p.opt.Metrics; reg != nil && u.Stats != nil {
		reg.Counter("earth_compiles_total", "Units compiled by this pipeline.").Inc()
		for _, ph := range u.Stats.Phases {
			reg.Histogram(fmt.Sprintf("earth_compile_phase_ns{phase=%q}", ph.Name),
				"Host wall-clock time per compiler phase.").Observe(ph.Ns)
		}
		reg.Histogram("earth_compile_ns", "Host wall-clock time per compile.").
			Observe(u.Stats.TotalNs())
	}
	if !p.opt.Stats {
		u.Stats = nil
	}
	return u
}

// recoverPhase converts a panic escaping a compile phase into a positioned
// error naming the file, the phase, and — when the panic crossed the worker
// pool as a par.WorkerPanic — the function being processed. Internal bugs
// on arbitrary user input thereby surface as diagnostics, not stack traces.
func recoverPhase(file string, phase *string, fnName func(i int) string, u **Unit, err *error) {
	r := recover()
	if r == nil {
		return
	}
	where := ""
	if wp, ok := r.(par.WorkerPanic); ok {
		if name := fnName(wp.Index); name != "" {
			where = fmt.Sprintf(" in function %s", name)
		}
		r = wp.Value
	}
	*u = nil
	*err = fmt.Errorf("%s: internal error during %s%s: %v", file, *phase, where, r)
}

// noFn is the fnName callback for phases that do not fan over functions.
func noFn(int) string { return "" }

func (p *Pipeline) compileAST(file *earthc.File, opt Options, prof *profile.Data, st *trace.CompileStats) (u *Unit, err error) {
	phase := "inline"
	defer recoverPhase(file.Name, &phase, noFn, &u, &err)
	t0 := time.Now()
	if !opt.NoInline {
		earthc.InlineFunctions(file, opt.Inline)
	}
	st.AddPhase("inline", time.Since(t0))
	phase = "restructure"
	t0 = time.Now()
	for _, fn := range file.Funcs {
		if err := earthc.DesugarLoops(fn); err != nil {
			return nil, fmt.Errorf("%s: %w", file.Name, err)
		}
		if err := earthc.EliminateGotos(fn); err != nil {
			return nil, fmt.Errorf("%s: %w", file.Name, err)
		}
	}
	st.AddPhase("restructure", time.Since(t0))
	if opt.ReorderFields {
		// Probe compile (unoptimized, unobserved) to count remote field
		// accesses on the original layouts, then permute and compile for
		// real.
		phase = "reorder"
		t0 = time.Now()
		probe, err := p.build(file, Options{}, nil, nil)
		if err != nil {
			return nil, err
		}
		reorderStructFields(file, probe)
		st.AddPhase("reorder", time.Since(t0))
	}
	return p.build(file, opt, prof, st)
}

// build runs semantic analysis through communication selection on an
// already-restructured AST.
func (p *Pipeline) build(file *earthc.File, opt Options, prof *profile.Data, st *trace.CompileStats) (u *Unit, err error) {
	phase := "sema"
	var sp *simple.Program
	defer recoverPhase(file.Name, &phase, func(i int) string {
		if sp != nil && i >= 0 && i < len(sp.Funcs) {
			return sp.Funcs[i].Name
		}
		return ""
	}, &u, &err)
	t0 := time.Now()
	sm, err := sema.Check(file)
	if err != nil {
		return nil, err
	}
	st.AddPhase("sema", time.Since(t0))
	phase = "lower"
	t0 = time.Now()
	sp, err = lower.Program(sm)
	if err != nil {
		return nil, err
	}
	// Site IDs are assigned on the freshly-lowered SIMPLE form, before any
	// transformation: the instrumented (unoptimized) compile and a later
	// profile-guided compile of the same source then agree on every key.
	simple.AssignSites(sp)
	st.AddPhase("lower", time.Since(t0))
	u = &Unit{Name: file.Name, File: file, Sema: sm, Simple: sp, Stats: st}
	// The per-function analysis chain fans out across a bounded worker pool;
	// each phase merges its per-function results in function order, so the
	// unit is identical for every worker count.
	pool := par.New(opt.Workers)
	addPhase := func(name string, t0 time.Time, busy0 time.Duration) {
		st.AddPhaseCum(name, time.Since(t0), pool.Busy()-busy0)
	}
	phase = "pointsto"
	t0 = time.Now()
	b0 := pool.Busy()
	u.PointsTo, err = pointsto.AnalyzeP(sp, pool)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file.Name, err)
	}
	addPhase("pointsto", t0, b0)
	phase = "rwsets"
	t0, b0 = time.Now(), pool.Busy()
	u.RWSets = rwsets.AnalyzeP(sp, u.PointsTo, pool)
	addPhase("rwsets", t0, b0)
	phase = "locality"
	t0, b0 = time.Now(), pool.Busy()
	u.Locality = locality.AnalyzeP(sp, u.PointsTo, pool)
	addPhase("locality", t0, b0)
	if st != nil {
		// Candidate remote accesses, counted before selection rewrites the
		// SIMPLE form.
		for _, fn := range sp.Funcs {
			simple.WalkBasics(fn.Body, func(b *simple.Basic) {
				if b.Kind != simple.KAssign {
					return
				}
				if ld, ok := b.Rhs.(simple.LoadRV); ok && u.Locality.RemoteLoad(ld.P) {
					st.CandidateReads++
				}
				if stv, ok := b.Lhs.(simple.StoreLV); ok && u.Locality.RemoteLoad(stv.P) {
					st.CandidateWrites++
				}
			})
		}
	}
	if opt.Optimize {
		var fp placement.FreqProvider
		sel := opt.Sel
		if prof != nil {
			fp = prof
			sel.ProfileGuided = true
		}
		phase = "placement"
		t0, b0 = time.Now(), pool.Busy()
		u.Placement = placement.AnalyzeProfiledP(sp, u.RWSets, u.Locality, fp, pool)
		addPhase("placement", t0, b0)
		phase = "commsel"
		t0, b0 = time.Now(), pool.Busy()
		u.Report = commsel.TransformP(sp, u.Placement, u.RWSets, u.Locality, sel, pool)
		addPhase("commsel", t0, b0)
		if st != nil {
			for _, set := range u.Placement.Reads {
				st.PlacedReadTuples += set.Len()
			}
			for _, set := range u.Placement.Writes {
				st.PlacedWriteTuples += set.Len()
			}
			t := u.Report.Totals()
			st.PipelinedReads = t.PipelinedReads
			st.BlockedReads = t.BlockedReads
			st.PipelinedWrites = t.PipelinedWrites
			st.BlockedWrites = t.BlockedWrites
			st.ReadsEliminated = t.ReadsEliminated
		}
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
	if rc.SimWorkers > 0 {
		cfg.SimWorkers = rc.SimWorkers
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
	if rc.Sampler != nil {
		m.SetMetrics(rc.Sampler)
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

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/commsel"
	"repro/internal/contenthash"
	"repro/internal/core"
	"repro/internal/earthc"
	"repro/internal/earthsim"
	"repro/internal/journal"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/pointsto"
	"repro/internal/rwsets"
	"repro/internal/sema"
	"repro/internal/server"
	"repro/internal/simple"
	"repro/internal/threaded"
	"repro/internal/trace"
)

// The traced pass replays the run's seeded job list in this process, with
// no HTTP and no earthd, and records a span around every call it makes
// into a layer's public function. It mirrors what one earthd shard does
// with a job (server.compileShared and server.execute) but spells the
// compile out phase by phase, so each package gets its own number. The
// untraced Pipeline.Do runs beside the phase-by-phase build on every
// compiling job: the ratio of the two (core.layers_over_do) says how much
// the spelling-out itself distorts, and their disassemblies must be
// byte-identical.

const (
	// earthd's defaults, which the traced pass must share to be comparable.
	serverMaxFuel     = 500_000_000
	serverJobDeadline = 60 * time.Second
	// tracedJobCap bounds the replay on workloads whose jobs are quick;
	// the time budget bounds it on the others.
	tracedJobCap = 400
	// probeReps is how many times each A/B probe runs each side; the
	// sides alternate and the median is kept.
	probeReps = 5
)

type tracedResult struct {
	metrics metricSet
	spans   []span
}

// simSpec is one way to run a compiled program on the simulator.
type simSpec struct {
	nodes      int
	simWorkers int  // 0 = the sequential loop
	faulted    bool // the workload's fault spec and seed
	sampled    bool // with a metrics.Sampler, as every earthd job runs
	traced     bool // with a trace.Recorder, as trace_summary jobs run
}

// observers are reused run to run, as an earthd shard reuses its own.
type observers struct {
	sampler  *metrics.Sampler
	recorder *trace.Recorder
}

// machine assembles the simulator the way core.Pipeline.Run does.
func (o *observers) machine(tp *threaded.Program, s simSpec) (*earthsim.Machine, error) {
	cfg := earthsim.DefaultConfig(s.nodes)
	cfg.Fuel = serverMaxFuel
	cfg.SimWorkers = s.simWorkers
	if s.faulted {
		f, err := earthsim.ParseFaultSpec(faultSpec)
		if err != nil {
			return nil, err
		}
		f.Seed = faultSeed
		cfg.Faults = f
	}
	m := earthsim.New(tp, cfg)
	m.SetDeadline(serverJobDeadline)
	if s.traced {
		o.recorder.Reset()
		m.SetTrace(o.recorder)
	}
	if s.sampled {
		o.sampler.Reset()
		m.SetMetrics(o.sampler)
	}
	return m, nil
}

// timed builds and runs once, returning host nanoseconds for construction
// and for the run.
func (o *observers) timed(tp *threaded.Program, s simSpec) (newNs, runNs int64, res *earthsim.Result, err error) {
	t0 := time.Now()
	m, err := o.machine(tp, s)
	if err != nil {
		return 0, 0, nil, err
	}
	t1 := time.Now()
	res, err = m.Run()
	return t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds(), res, err
}

// buildLayered calls the public functions core.Pipeline.build calls, in its
// order and with earthd's settings (optimizing, one analysis worker, static
// frequencies), with a span around each.
func buildLayered(tr *tracer, jobIx, parent int, name, src string) (*core.Unit, error) {
	all := tr.start("layers", jobIx, parent)
	defer tr.end(all)
	var err error
	call := func(span string, f func()) {
		if err != nil {
			return
		}
		ix := tr.start(span, jobIx, all)
		f()
		tr.end(ix)
	}
	var (
		file *earthc.File
		sm   *sema.Program
		sp   *simple.Program
		pt   *pointsto.Result
		rw   *rwsets.Result
		loc  *locality.Result
		pl   *placement.Result
	)
	pool := par.New(1)
	call("contenthash.source", func() { _ = contenthash.Source(src) })
	call("earthc.parse", func() { file, err = earthc.ParseFile(name, src) })
	call("earthc.inline", func() { earthc.InlineFunctions(file, earthc.InlineOptions{}) })
	call("earthc.restructure", func() {
		for _, fn := range file.Funcs {
			if err = earthc.DesugarLoops(fn); err != nil {
				return
			}
			if err = earthc.EliminateGotos(fn); err != nil {
				return
			}
		}
	})
	call("sema.check", func() { sm, err = sema.Check(file) })
	call("lower.program", func() {
		if sp, err = lower.Program(sm); err == nil {
			simple.AssignSites(sp)
		}
	})
	call("pointsto.analyze", func() { pt, err = pointsto.AnalyzeP(sp, pool) })
	call("rwsets.analyze", func() { rw = rwsets.AnalyzeP(sp, pt, pool) })
	call("locality.analyze", func() { loc = locality.AnalyzeP(sp, pt, pool) })
	call("placement.analyze", func() { pl = placement.AnalyzeProfiledP(sp, rw, loc, nil, pool) })
	call("commsel.transform", func() { commsel.TransformP(sp, pl, rw, loc, commsel.Options{}, pool) })
	// The pieces go into a core.Unit so that code generation and the
	// canonical disassembly are core's own (Unit.Threaded is
	// threaded.Generate plus a memo).
	u := &core.Unit{Name: name, Simple: sp, Locality: loc}
	call("threaded.generate", func() { _, err = u.Threaded(threaded.Options{}) })
	if err != nil {
		return nil, fmt.Errorf("layered build of %s: %w", name, err)
	}
	return u, nil
}

// doPhases are the spans that cover what Pipeline.Do does on a cold
// compile (threaded.generate belongs to Run, not Do).
var doPhases = []string{
	"contenthash.source", "earthc.parse", "earthc.inline", "earthc.restructure",
	"sema.check", "lower.program", "pointsto.analyze", "rwsets.analyze",
	"locality.analyze", "placement.analyze", "commsel.transform",
}

// unitSource resolves a request to (unit name, source) as server.resolve
// does.
func unitSource(j job) (string, string) {
	if j.Req.Source != "" {
		return j.Req.Name, j.Req.Source
	}
	return j.Prog.Name + ".ec", j.Prog.source()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedPass replays jobs of the seeded list for about budget, then runs
// the per-program probes.
func tracedPass(w *workload, seed int64, nproc int, workDir string, expected map[string]expectedOutput, budget time.Duration) (*tracedResult, error) {
	t0 := time.Now()
	tr := newTracer()
	m := metricSet{}
	obsv := &observers{sampler: metrics.NewSampler(0, 0), recorder: trace.NewRecorder(0)}
	// One cache and one registry, as one earthd has.
	pipe := core.NewPipeline(core.Options{
		Optimize: true, Workers: 1, Stats: true,
		Metrics: metrics.NewRegistry(), Cache: cache.New(0, ""),
	})
	engine := 0
	if w.Sharded {
		engine = nproc
	}

	doUs := map[string][]float64{} // by cache outcome: cold, warm, edit
	var coldAllocs []float64
	var coldDoNs, coldPhaseNs int64
	var reqBodies, resultBodies [][]byte
	for i := 0; i < tracedJobCap; i++ {
		if i >= len(w.Block) && time.Since(t0) > budget {
			break
		}
		j := w.job(seed, i)
		name, src := unitSource(j)
		root := tr.start("job", i, -1)

		a0 := mallocs()
		doIx := tr.start("core.do", i, root)
		res, err := pipe.Do(core.CompileRequest{Name: name, Source: src, Cache: core.CachePolicy{Bypass: j.Req.Cache == "bypass"}})
		tr.end(doIx)
		if err != nil {
			return nil, fmt.Errorf("traced job %d: %w", i, err)
		}
		allocs := mallocs() - a0
		outcome := "cold"
		switch {
		case res.Hit:
			outcome = "warm"
		case res.FuncsReused > 0:
			outcome = "edit"
		}
		tr.spans[doIx].Name = "core.do_" + outcome
		doNs := tr.spans[doIx].End - tr.spans[doIx].Start
		doUs[outcome] = append(doUs[outcome], float64(doNs)/1e3)

		if !res.Hit {
			first := len(tr.spans)
			l, err := buildLayered(tr, i, root, name, src)
			if err != nil {
				return nil, err
			}
			want, err := res.Unit.Disasm()
			if err != nil {
				return nil, err
			}
			if got, err := l.Disasm(); err != nil || got != want {
				return nil, fmt.Errorf("traced job %d (%s %s): the phase-by-phase build's threaded code differs from Pipeline.Do's", i, j.Class, j.Prog.key())
			}
			if outcome == "cold" {
				coldAllocs = append(coldAllocs, float64(allocs))
				coldDoNs += doNs
				for _, s := range tr.spans[first:] {
					if slices.Contains(doPhases, s.Name) {
						coldPhaseNs += s.End - s.Start
					}
				}
			}
		}

		tp, err := res.Unit.Threaded(threaded.Options{})
		if err != nil {
			return nil, err
		}
		spec := simSpec{nodes: j.Prog.Nodes, simWorkers: engine, faulted: j.Class == classFaulted, sampled: true, traced: j.Class == classTraced}
		newIx := tr.start("earthsim.new", i, root)
		mach, err := obsv.machine(tp, spec)
		tr.end(newIx)
		if err != nil {
			return nil, err
		}
		runIx := tr.start("earthsim.run", i, root)
		out, err := mach.Run()
		tr.end(runIx)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("traced job %d (%s %s): %w", i, j.Class, j.Prog.key(), err)
		}
		if bad := expected[j.Prog.key()].check(out.Output, out.MainRet); bad != "" {
			return nil, fmt.Errorf("traced job %d (%s %s): %s", i, j.Class, j.Prog.key(), bad)
		}
		if len(reqBodies) < 64 {
			b, err := json.Marshal(&server.JobResult{
				JobID: j.Req.ID, Name: name, Benchmark: j.Req.Benchmark, SourceHash: res.Unit.SourceHash,
				Nodes: j.Prog.Nodes, Optimized: true, TimeNs: out.Time, Output: out.Output,
				MainRet: out.MainRet, Counts: out.Counts, Faults: out.Faults,
			})
			if err != nil {
				return nil, err
			}
			reqBodies, resultBodies = append(reqBodies, j.Body), append(resultBodies, b)
		}
	}

	// Phase and simulator timings: median self time per span name.
	self := selfTimes(tr.spans)
	byName := map[string][]float64{}
	for i, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
	}
	for _, p := range append(doPhases, "threaded.generate") {
		m[p+"_us"] = median(byName[p]) / 1e3
	}
	m["earthsim.new_us"] = median(byName["earthsim.new"]) / 1e3
	m["earthsim.run_ms"] = median(byName["earthsim.run"]) / 1e6
	m["core.do_cold_us"] = median(doUs["cold"])
	m["core.do_warm_us"] = median(doUs["warm"])
	m["core.do_edit_us"] = median(doUs["edit"])
	m["core.do_cold_allocs"] = median(coldAllocs)
	m["core.layers_over_do"] = ratio(float64(coldPhaseNs), float64(coldDoNs))

	if err := probePrograms(m, w, pipe, obsv, engine, nproc); err != nil {
		return nil, err
	}
	if err := probeJournal(m, filepath.Join(workDir, w.Name+"-journal-probe"), reqBodies, resultBodies); err != nil {
		return nil, err
	}
	m["tracer.run_s"] = time.Since(t0).Seconds()
	return &tracedResult{metrics: m, spans: tr.spans}, nil
}

// probePrograms measures, once per distinct program of the workload, what
// the job replay cannot: static counts of the optimized build, the gain
// over the unoptimized build, both simulator engines side by side, and
// the cost of each observer as an on/off pair. Sums run over the
// workload's programs, so every ratio is "for this workload's mix".
func probePrograms(m metricSet, w *workload, pipe *core.Pipeline, obsv *observers, engine, nproc int) error {
	simplePipe := core.NewPipeline(core.Options{Optimize: false, Workers: 1})
	var t struct {
		seqNs, seqEvents, seqInstrs     float64
		shardNs, shardEvents            float64
		events, instrs, allocs          float64
		baseNs, sampledNs, tracedNs     float64
		faultedNs, retries              float64
		optSimNs, optOps, plainSimNs    float64
		plainOps, basics, instrsEmitted float64
		readTuples, writeTuples         float64
		totals                          commsel.FuncReport
	}
	progs := w.programs()
	for _, p := range progs {
		name, src := p.Name+".ec", p.source()
		res, err := pipe.Do(core.CompileRequest{Name: name, Source: src})
		if err != nil {
			return err
		}
		u := res.Unit
		tp, err := u.Threaded(threaded.Options{})
		if err != nil {
			return err
		}
		for _, fn := range u.Simple.Funcs {
			simple.WalkBasics(fn.Body, func(*simple.Basic) { t.basics++ })
		}
		for _, fn := range tp.Funcs {
			t.instrsEmitted += float64(len(fn.Code))
		}
		for _, set := range u.Placement.Reads {
			t.readTuples += float64(set.Len())
		}
		for _, set := range u.Placement.Writes {
			t.writeTuples += float64(set.Len())
		}
		tot := u.Report.Totals()
		t.totals.PipelinedReads += tot.PipelinedReads
		t.totals.BlockedReads += tot.BlockedReads
		t.totals.PipelinedWrites += tot.PipelinedWrites
		t.totals.BlockedWrites += tot.BlockedWrites
		t.totals.ReadsEliminated += tot.ReadsEliminated

		plain, err := simplePipe.Do(core.CompileRequest{Name: name, Source: src})
		if err != nil {
			return err
		}
		plainTP, err := plain.Unit.Threaded(threaded.Options{})
		if err != nil {
			return err
		}

		// median of probeReps runs of each spec, the specs interleaved so
		// host drift lands on all of them alike.
		base := simSpec{nodes: p.Nodes, simWorkers: engine}
		seq, shard := simSpec{nodes: p.Nodes}, simSpec{nodes: p.Nodes, simWorkers: nproc}
		sampled, traced, faulted := base, base, base
		sampled.sampled, traced.traced, faulted.faulted = true, true, true
		specs := []simSpec{seq, shard, base, sampled, traced, faulted}
		wall := make([][]float64, len(specs)) // construction + run
		runNs := make([][]float64, len(specs))
		last := make([]*earthsim.Result, len(specs))
		for rep := 0; rep < probeReps; rep++ {
			for i, s := range specs {
				n, r, out, err := obsv.timed(tp, s)
				if err != nil {
					return fmt.Errorf("probe %s %+v: %w", p.key(), s, err)
				}
				wall[i] = append(wall[i], float64(n+r))
				runNs[i] = append(runNs[i], float64(r))
				last[i] = out
			}
		}
		t.seqNs += median(runNs[0])
		t.seqEvents += float64(last[0].Events)
		t.seqInstrs += float64(last[0].Counts.Instructions)
		t.shardNs += median(runNs[1])
		t.shardEvents += float64(last[1].Events)
		t.events += float64(last[2].Events)
		t.instrs += float64(last[2].Counts.Instructions)
		t.baseNs += median(wall[2])
		t.sampledNs += median(wall[3])
		t.tracedNs += median(wall[4])
		t.faultedNs += median(wall[5])
		t.retries += float64(last[5].Faults.Retries)

		a0 := mallocs()
		if _, _, _, err := obsv.timed(tp, base); err != nil {
			return err
		}
		t.allocs += float64(mallocs() - a0)

		_, _, plainOut, err := obsv.timed(plainTP, seq)
		if err != nil {
			return fmt.Errorf("probe %s unoptimized: %w", p.key(), err)
		}
		t.optSimNs += float64(last[0].Time)
		t.optOps += float64(last[0].Counts.TotalRemote())
		t.plainSimNs += float64(plainOut.Time)
		t.plainOps += float64(plainOut.Counts.TotalRemote())
	}
	m["simple.basic_stmts"] = t.basics
	m["threaded.instrs"] = t.instrsEmitted
	m["placement.read_tuples"] = t.readTuples
	m["placement.write_tuples"] = t.writeTuples
	m["commsel.pipelined_reads"] = float64(t.totals.PipelinedReads)
	m["commsel.blocked_reads"] = float64(t.totals.BlockedReads)
	m["commsel.pipelined_writes"] = float64(t.totals.PipelinedWrites)
	m["commsel.blocked_writes"] = float64(t.totals.BlockedWrites)
	m["commsel.reads_eliminated"] = float64(t.totals.ReadsEliminated)
	m["commsel.ops_pct_of_simple"] = 100 * ratio(t.optOps, t.plainOps)
	m["commsel.time_gain_pct"] = 100 * ratio(t.plainSimNs-t.optSimNs, t.plainSimNs)
	m["earthsim.events"] = t.events
	m["earthsim.guest_instrs"] = t.instrs
	m["earthsim.instrs_per_event"] = ratio(t.instrs, t.events)
	m["earthsim.seq_ns_per_event"] = ratio(t.seqNs, t.seqEvents)
	m["earthsim.sharded_ns_per_event"] = ratio(t.shardNs, t.shardEvents)
	m["earthsim.sharded_over_seq"] = ratio(t.shardNs, t.seqNs)
	m["earthsim.ns_per_instr"] = ratio(t.seqNs, t.seqInstrs)
	m["earthsim.allocs_per_run"] = t.allocs / float64(len(progs))
	m["earthsim.fault_retries"] = t.retries
	m["earthsim.fault_overhead_share"] = ratio(t.faultedNs-t.baseNs, t.faultedNs)
	m["metrics.sampler_overhead_share"] = ratio(t.sampledNs-t.baseNs, t.sampledNs)
	m["trace.recorder_overhead_share"] = ratio(t.tracedNs-t.baseNs, t.tracedNs)
	return nil
}

// probeJournal times Journal.Accepted (fsync before return) and
// Journal.Completed (lazy sync) on a fresh journal under dir, with the
// request and result bytes of the jobs just replayed.
func probeJournal(m metricSet, dir string, reqs, results [][]byte) error {
	jr, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var accepted, completed []float64
	for i := range reqs {
		id := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		if err := jr.Accepted(id, reqs[i]); err != nil {
			jr.Close()
			return err
		}
		t1 := time.Now()
		if err := jr.Completed(id, 200, results[i], ""); err != nil {
			jr.Close()
			return err
		}
		accepted = append(accepted, float64(t1.Sub(t0).Nanoseconds())/1e3)
		completed = append(completed, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	m["journal.accepted_us"] = median(accepted)
	m["journal.completed_us"] = median(completed)
	return jr.Close()
}

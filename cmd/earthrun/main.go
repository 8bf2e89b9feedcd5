// Command earthrun compiles an EARTH-C program and executes it on the
// simulated EARTH-MANNA machine.
//
// Usage:
//
//	earthrun [flags] file.ec
//
//	-nodes N          machine size (default 1)
//	-O                enable communication optimization
//	-seq              sequential baseline build (serialized, direct memory)
//	-stats            print simulated time and communication counters
//	-compare          run both simple and optimized builds and compare
//	-profile out      instrument the run and write (or merge into) the
//	                  profile artifact at out
//	-profile-use in   optimize using a previously collected profile
//	                  (implies -O)
//	-trace out.json   record per-message/per-unit events and write a Chrome
//	                  trace_event file (open in chrome://tracing or Perfetto)
//	-trace-summary    print a text summary of the recorded events (latency
//	                  histograms, per-site traffic, utilization); implies
//	                  recording even without -trace
//	-cost spec        override simulator cost parameters, e.g.
//	                  "NetLatency=2500,SUService=800"
//	-faults spec      inject deterministic transport faults and run the
//	                  reliable-messaging protocol, e.g.
//	                  "drop=0.01,dup=0.005,delay=3" (see -faults keys below)
//	-fault-seed N     PRNG seed for fault injection (default 1); the same
//	                  seed and spec reproduce the run exactly
//	-fuel N           abort after N simulated EU instructions instead of
//	                  hanging on a runaway program (0 = unlimited)
//	-deadline d       abort after d of host wall-clock time, e.g. "30s"
//	-j N              compile with N analysis workers (0 = all CPUs); the
//	                  compiled code and the simulated result are identical
//	                  for every worker count
//	-http addr        serve live telemetry on addr (e.g. ":6060") while the
//	                  run is in flight: /metrics (Prometheus, including
//	                  process-level goroutine/GC/heap gauges), /metrics.json,
//	                  /series.json (deterministic simulator time series),
//	                  /healthz, /trace/summary and /trace.json (when tracing
//	                  is on), and /debug/pprof/. The server lives until the
//	                  process exits; SIGINT/SIGTERM drains it gracefully
//	                  (in-flight scrapes finish) before the process stops.
//
// Fault spec keys: drop, dup, stall (probabilities in [0,1)); delay (max
// extra hops, uniform); stallns, timeout (ns); retries; seed.
//
// With -compare, tracing, fault injection and -http apply to the optimized
// run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	nodes := flag.Int("nodes", 1, "number of simulated nodes")
	optimize := flag.Bool("O", false, "enable communication optimization")
	seq := flag.Bool("seq", false, "sequential baseline build")
	stats := flag.Bool("stats", false, "print time and counters")
	compare := flag.Bool("compare", false, "run simple and optimized, compare")
	profOut := flag.String("profile", "", "instrument the run and write/merge the profile here")
	profUse := flag.String("profile-use", "", "optimize using a previously collected profile (implies -O)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of the run here")
	traceSum := flag.Bool("trace-summary", false, "print a text summary of recorded events")
	costSpec := flag.String("cost", "", "cost-model overrides, e.g. \"NetLatency=2500,SUService=800\"")
	faultSpec := flag.String("faults", "", "fault-injection spec, e.g. \"drop=0.01,dup=0.005,delay=3\"")
	faultSeed := flag.Uint64("fault-seed", 1, "PRNG seed for fault injection")
	fuel := flag.Int64("fuel", 0, "abort after N simulated EU instructions (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "abort after this much host wall-clock time (0 = none)")
	workers := flag.Int("j", 0, "analysis worker count (0 = all CPUs); output is identical for any value")
	simJ := flag.Int("sim-j", 0, "goroutines running the simulator's event-loop windows (0 or 1 = inline); output is identical for any value")
	httpAddr := flag.String("http", "", "serve live telemetry on this address during the run")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: earthrun [flags] file.ec")
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	srcBytes, err := os.ReadFile(name)
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	machine, err := earthsim.ParseOverrides(*costSpec)
	if err != nil {
		fatal(err)
	}

	faults, err := earthsim.ParseFaultSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if faults != nil && faults.Seed == 0 {
		faults.Seed = *faultSeed
	}

	var prof *profile.Data
	if *profUse != "" {
		prof, err = profile.ReadFile(*profUse)
		if err != nil {
			fatal(err)
		}
		*optimize = true
	}

	var rec *trace.Recorder
	if *traceOut != "" || *traceSum {
		rec = trace.NewRecorder(*nodes)
	}

	// -http attaches a metrics registry and a time-series sampler to the
	// run and serves them (plus pprof and the live trace, if recording)
	// for the life of the process.
	var reg *metrics.Registry
	var sampler *metrics.Sampler
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		sampler = metrics.NewSampler(0, 0)
	}

	if *compare {
		simple, err := run(name, src, runOpts{nodes: *nodes, seq: *seq, machine: machine,
			workers: *workers, simWorkers: *simJ, fuel: *fuel, deadline: *deadline})
		if err != nil {
			fatal(err)
		}
		opt, err := run(name, src, runOpts{optimize: true, nodes: *nodes, seq: *seq,
			prof: prof, machine: machine, rec: rec, workers: *workers,
			simWorkers: *simJ, fuel: *fuel, deadline: *deadline, faults: faults,
			reg: reg, sampler: sampler, httpAddr: *httpAddr})
		if err != nil {
			fatal(err)
		}
		if simple.out != opt.out {
			fatal(fmt.Errorf("outputs differ!\nsimple: %q\noptimized: %q", simple.out, opt.out))
		}
		fmt.Print(simple.out)
		fmt.Printf("simple:    %12d ns   %s\n", simple.time, simple.counts)
		fmt.Printf("optimized: %12d ns   %s\n", opt.time, opt.counts)
		fmt.Printf("improvement: %.2f%%\n", 100*(1-float64(opt.time)/float64(simple.time)))
		emitTrace(rec, *traceOut, *traceSum)
		return
	}

	r, err := run(name, src, runOpts{
		optimize: *optimize, nodes: *nodes, seq: *seq,
		prof: prof, instrument: *profOut != "",
		machine: machine, rec: rec, workers: *workers,
		simWorkers: *simJ, fuel: *fuel, deadline: *deadline, faults: faults,
		reg: reg, sampler: sampler, httpAddr: *httpAddr,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(r.out)
	if *profOut != "" {
		saved, err := saveProfile(*profOut, r.prof)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "earthrun: profile written to %s (%d run(s) accumulated)\n",
			*profOut, saved.Runs)
	}
	if *stats {
		fmt.Printf("time: %d ns (%.3f ms) on %d node(s)\n", r.time, float64(r.time)/1e6, *nodes)
		fmt.Printf("comm: %s\n", r.counts)
	}
	if r.faults != nil {
		fmt.Fprintf(os.Stderr, "earthrun: faults [%s]: %s\n", faults, r.faults)
	}
	emitTrace(rec, *traceOut, *traceSum)
}

// emitTrace writes the Chrome trace file and/or prints the text summary.
func emitTrace(rec *trace.Recorder, out string, summary bool) {
	if rec == nil {
		return
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "earthrun: trace written to %s (%d messages, %d spans)\n",
			out, len(rec.Msgs()), len(rec.Spans()))
	}
	if summary {
		fmt.Print(rec.Summarize().String())
	}
}

// saveProfile writes p to path, merging into an existing compatible profile
// first so repeated -profile runs accumulate (runs sum). It returns the
// profile actually written.
func saveProfile(path string, p *profile.Data) (*profile.Data, error) {
	if prev, err := profile.ReadFile(path); err == nil {
		if mergeErr := prev.Merge(p); mergeErr != nil {
			fmt.Fprintf(os.Stderr, "earthrun: warning: not merging into %s: %v\n", path, mergeErr)
		} else {
			p = prev
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return p, p.WriteFile(path)
}

type runOpts struct {
	optimize   bool
	nodes      int
	seq        bool
	prof       *profile.Data    // measured frequencies for the optimizer
	instrument bool             // collect a profile during the run
	machine    *earthsim.Config // cost-model override
	rec        *trace.Recorder  // event sink (nil = no tracing)
	workers    int              // analysis worker count (0 = all CPUs)
	simWorkers int              // simulator event-loop workers (≤ 1: inline)
	fuel       int64            // EU instruction budget (0 = unlimited)
	deadline   time.Duration    // host wall-clock bound (0 = none)
	faults     *earthsim.FaultConfig
	reg        *metrics.Registry // live telemetry registry (nil = off)
	sampler    *metrics.Sampler  // simulator time-series sampler (nil = off)
	httpAddr   string            // debug server address ("" = no server)
}

type runResult struct {
	out    string
	time   int64
	counts fmt.Stringer
	prof   *profile.Data
	faults *earthsim.FaultStats
}

func run(name, src string, ro runOpts) (*runResult, error) {
	p := core.NewPipeline(core.Options{Optimize: ro.optimize,
		Trace: ro.rec, Workers: ro.workers, Metrics: ro.reg})
	if ro.httpAddr != "" {
		d, err := p.ServeDebug(ro.httpAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "earthrun: telemetry at http://%s/ (revision %s, %s)\n",
			d.Addr, obs.Info().ShortRevision(), obs.Info().GoVersion)
		// SIGINT/SIGTERM drains the debug server (in-flight scrapes finish)
		// before the process exits, instead of the runtime's hard kill —
		// the same drain helper earthd uses for its job queue.
		go func() {
			if err := <-server.ShutdownOnSignal(5*time.Second, d.Shutdown); err != nil {
				fmt.Fprintln(os.Stderr, "earthrun: shutdown:", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "earthrun: debug server drained; exiting on signal")
			os.Exit(130)
		}()
	}
	cres, err := p.Do(core.CompileRequest{Name: name, Source: src, Profile: ro.prof})
	if err != nil {
		return nil, err
	}
	u := cres.Unit
	for _, w := range u.Warnings {
		fmt.Fprintln(os.Stderr, "earthrun: warning:", w)
	}
	res, err := p.Run(u, core.RunConfig{Nodes: ro.nodes, Sequential: ro.seq,
		Profile: ro.instrument, Machine: ro.machine, SimWorkers: ro.simWorkers,
		Fuel: ro.fuel, Deadline: ro.deadline, Faults: ro.faults,
		Sampler: ro.sampler})
	if err != nil {
		return nil, err
	}
	return &runResult{out: res.Output, time: res.Time, counts: res.Counts,
		prof: res.Profile, faults: res.Faults}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "earthrun:", err)
	os.Exit(1)
}

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
//
// Fault spec keys: drop, dup, stall (probabilities in [0,1)); delay (max
// extra hops, uniform); stallns, timeout (ns); retries; seed.
//
// With -compare, tracing and fault injection apply to the optimized run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/profile"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("earthrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 1, "number of simulated nodes")
	optimize := fs.Bool("O", false, "enable communication optimization")
	seq := fs.Bool("seq", false, "sequential baseline build")
	stats := fs.Bool("stats", false, "print time and counters")
	compare := fs.Bool("compare", false, "run simple and optimized, compare")
	profOut := fs.String("profile", "", "instrument the run and write/merge the profile here")
	profUse := fs.String("profile-use", "", "optimize using a previously collected profile (implies -O)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file of the run here")
	traceSum := fs.Bool("trace-summary", false, "print a text summary of recorded events")
	costSpec := fs.String("cost", "", "cost-model overrides, e.g. \"NetLatency=2500,SUService=800\"")
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. \"drop=0.01,dup=0.005,delay=3\"")
	faultSeed := fs.Uint64("fault-seed", 1, "PRNG seed for fault injection")
	fuel := fs.Int64("fuel", 0, "abort after N simulated EU instructions (0 = unlimited)")
	deadline := fs.Duration("deadline", 0, "abort after this much host wall-clock time (0 = none)")
	workers := fs.Int("j", 0, "analysis worker count (0 = all CPUs); output is identical for any value")
	simJ := fs.Int("sim-j", 0, "goroutines running the simulator's event-loop windows (0 or 1 = inline); output is identical for any value")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: earthrun [flags] file.ec")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "earthrun:", err)
		return 1
	}
	name := fs.Arg(0)
	srcBytes, err := os.ReadFile(name)
	if err != nil {
		return fail(err)
	}
	src := string(srcBytes)

	machine, err := earthsim.ParseOverrides(*costSpec)
	if err != nil {
		return fail(err)
	}

	faults, err := earthsim.ParseFaultSpec(*faultSpec)
	if err != nil {
		return fail(err)
	}
	if faults != nil && faults.Seed == 0 {
		faults.Seed = *faultSeed
	}

	var prof *profile.Data
	if *profUse != "" {
		prof, err = profile.ReadFile(*profUse)
		if err != nil {
			return fail(err)
		}
		*optimize = true
	}

	var rec *trace.Recorder
	if *traceOut != "" || *traceSum {
		rec = trace.NewRecorder(*nodes)
	}

	if *compare {
		simple, err := runOnce(name, src, stderr, runOpts{nodes: *nodes, seq: *seq, machine: machine,
			workers: *workers, simWorkers: *simJ, fuel: *fuel, deadline: *deadline})
		if err != nil {
			return fail(err)
		}
		opt, err := runOnce(name, src, stderr, runOpts{optimize: true, nodes: *nodes, seq: *seq,
			prof: prof, machine: machine, rec: rec, workers: *workers,
			simWorkers: *simJ, fuel: *fuel, deadline: *deadline, faults: faults})
		if err != nil {
			return fail(err)
		}
		if simple.out != opt.out {
			return fail(fmt.Errorf("outputs differ!\nsimple: %q\noptimized: %q", simple.out, opt.out))
		}
		fmt.Fprint(out, simple.out)
		fmt.Fprintf(out, "simple:    %12d ns   %s\n", simple.time, simple.counts)
		fmt.Fprintf(out, "optimized: %12d ns   %s\n", opt.time, opt.counts)
		fmt.Fprintf(out, "improvement: %.2f%%\n", 100*(1-float64(opt.time)/float64(simple.time)))
		if err := emitTrace(rec, *traceOut, *traceSum, out, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	r, err := runOnce(name, src, stderr, runOpts{
		optimize: *optimize, nodes: *nodes, seq: *seq,
		prof: prof, instrument: *profOut != "",
		machine: machine, rec: rec, workers: *workers,
		simWorkers: *simJ, fuel: *fuel, deadline: *deadline, faults: faults,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(out, r.out)
	if *profOut != "" {
		saved, err := saveProfile(*profOut, r.prof, stderr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "earthrun: profile written to %s (%d run(s) accumulated)\n",
			*profOut, saved.Runs)
	}
	if *stats {
		fmt.Fprintf(out, "time: %d ns (%.3f ms) on %d node(s)\n", r.time, float64(r.time)/1e6, *nodes)
		fmt.Fprintf(out, "comm: %s\n", r.counts)
	}
	if r.faults != nil {
		fmt.Fprintf(stderr, "earthrun: faults [%s]: %s\n", faults, r.faults)
	}
	if err := emitTrace(rec, *traceOut, *traceSum, out, stderr); err != nil {
		return fail(err)
	}
	return 0
}

// emitTrace writes the Chrome trace file and/or prints the text summary.
func emitTrace(rec *trace.Recorder, path string, summary bool, out, stderr io.Writer) error {
	if rec == nil {
		return nil
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "earthrun: trace written to %s (%d messages, %d spans)\n",
			path, len(rec.Msgs()), len(rec.Spans()))
	}
	if summary {
		fmt.Fprint(out, rec.Summarize().String())
	}
	return nil
}

// saveProfile writes p to path, merging into an existing compatible profile
// first so repeated -profile runs accumulate (runs sum). It returns the
// profile actually written.
func saveProfile(path string, p *profile.Data, stderr io.Writer) (*profile.Data, error) {
	if prev, err := profile.ReadFile(path); err == nil {
		if mergeErr := prev.Merge(p); mergeErr != nil {
			fmt.Fprintf(stderr, "earthrun: warning: not merging into %s: %v\n", path, mergeErr)
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
}

type runResult struct {
	out    string
	time   int64
	counts fmt.Stringer
	prof   *profile.Data
	faults *earthsim.FaultStats
}

// runOnce compiles src under ro and runs it once; compile warnings go to
// stderr.
func runOnce(name, src string, stderr io.Writer, ro runOpts) (*runResult, error) {
	p := core.NewPipeline(core.Options{Optimize: ro.optimize, Workers: ro.workers})
	cres, err := p.Do(core.CompileRequest{Name: name, Source: src, Profile: ro.prof})
	if err != nil {
		return nil, err
	}
	u := cres.Unit
	for _, w := range u.Warnings {
		fmt.Fprintln(stderr, "earthrun: warning:", w)
	}
	res, err := p.Run(u, core.RunConfig{Nodes: ro.nodes, Sequential: ro.seq,
		Profile: ro.instrument, Machine: ro.machine, SimWorkers: ro.simWorkers,
		Fuel: ro.fuel, Deadline: ro.deadline, Faults: ro.faults, Trace: ro.rec})
	if err != nil {
		return nil, err
	}
	return &runResult{out: res.Output, time: res.Time, counts: res.Counts,
		prof: res.Profile, faults: res.Faults}, nil
}

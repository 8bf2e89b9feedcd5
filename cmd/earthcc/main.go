// Command earthcc is the EARTH-C compiler driver: it parses, checks,
// lowers, optionally optimizes communication, and prints the requested
// intermediate representation.
//
// Usage:
//
//	earthcc [flags] file.ec
//
//	-O                 enable communication optimization (Phase II)
//	-dump=simple       print SIMPLE form (default)
//	-dump=ast          print the (inlined, restructured) AST
//	-dump=threaded     print threaded-code disassembly
//	-dump=placement    print per-statement RemoteReads/RemoteWrites sets
//	-func name         restrict -dump=simple/placement/threaded output to one
//	                   function (threaded: with its $forall/$arm bodies)
//	-labels            include Si statement labels in SIMPLE output
//	-no-inline         disable Phase I function inlining
//	-threshold N       blocking threshold in words (default 3)
//	-report            print the communication-selection report
//	-stats             print per-phase compile timings and, with -O, the
//	                   placement and selection counts
//	-profile-gen out   compile instrumented, run on -nodes, write the
//	                   profile artifact to out (no dump)
//	-profile-use in    optimize with measured frequencies from in (implies -O)
//	-nodes N           machine size for -profile-gen (default 1)
//	-cache-dir dir     persist compile artifacts under dir; a later
//	                   -dump=threaded of unchanged source is served from the
//	                   store without compiling (corrupted entries fall back
//	                   to a cold compile)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthc"
	"repro/internal/profile"
	"repro/internal/simple"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("earthcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	optimize := fs.Bool("O", false, "enable communication optimization")
	dump := fs.String("dump", "simple", "what to print: simple|ast|threaded|placement")
	fnFilter := fs.String("func", "", "restrict simple/placement/threaded dumps to one function (threaded: with its $forall/$arm bodies)")
	labels := fs.Bool("labels", false, "show Si statement labels")
	noInline := fs.Bool("no-inline", false, "disable function inlining")
	threshold := fs.Int("threshold", 3, "blocking threshold in words")
	report := fs.Bool("report", false, "print the selection report")
	stats := fs.Bool("stats", false, "print per-phase compile timings and optimization counters")
	profGen := fs.String("profile-gen", "", "collect a profile via an instrumented run and write it here")
	profUse := fs.String("profile-use", "", "optimize using a previously collected profile (implies -O)")
	nodes := fs.Int("nodes", 1, "machine size for -profile-gen")
	cacheDir := fs.String("cache-dir", "", "persist compile artifacts here and serve -dump=threaded/-report from valid entries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: earthcc [flags] file.ec")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "earthcc:", err)
		return 1
	}
	name := fs.Arg(0)
	src, err := os.ReadFile(name)
	if err != nil {
		return fail(err)
	}

	if *profGen != "" {
		p := core.NewPipeline(core.Options{NoInline: *noInline})
		u, err := p.Compile(name, string(src))
		if err != nil {
			return fail(err)
		}
		res, err := p.Run(u, core.RunConfig{Nodes: *nodes, Profile: true})
		if err != nil {
			return fail(err)
		}
		if err := res.Profile.WriteFile(*profGen); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "earthcc: wrote profile for %s (%d nodes) to %s\n",
			name, *nodes, *profGen)
		return 0
	}

	opts := core.Options{Optimize: *optimize, NoInline: *noInline}
	opts.Sel.BlockThreshold = *threshold
	req := core.CompileRequest{Name: name, Source: string(src)}
	if *profUse != "" {
		p, err := profile.ReadFile(*profUse)
		if err != nil {
			return fail(err)
		}
		req.Profile = p
		opts.Optimize = true
	}
	var c *cache.Cache
	if *cacheDir != "" {
		c = cache.New(0, *cacheDir)
		opts.Cache = c
	}
	p := core.NewPipeline(opts)
	// Disk fast path: when the requested outputs are exactly the persisted
	// artifacts, a valid cache entry serves them without compiling.
	// Corrupted or truncated entries fail validation and fall through to a
	// cold compile.
	if c != nil && *dump == "threaded" && !*stats && *fnFilter == "" {
		if a, ok := c.LoadArtifact(p.CacheKey(req)); ok {
			for _, w := range a.Warnings {
				fmt.Fprintln(stderr, "earthcc: warning:", w)
			}
			fmt.Fprint(out, a.Disasm)
			if *report && a.Report != "" {
				fmt.Fprintln(out, a.Report)
			}
			fmt.Fprintln(stderr, "earthcc: cache: 1 disk hit (compile skipped)")
			return 0
		}
	}
	res, err := p.Do(req)
	if err != nil {
		return fail(err)
	}
	u := res.Unit
	if c != nil {
		fmt.Fprintf(stderr, "earthcc: cache: no disk hit, compiled %d function(s)\n", len(u.Simple.Funcs))
	}
	for _, w := range u.Warnings {
		fmt.Fprintln(stderr, "earthcc: warning:", w)
	}
	wantFn := func(f *simple.Func) bool {
		return *fnFilter == "" || f.Name == *fnFilter
	}
	if *fnFilter != "" && u.Simple.FuncByName(*fnFilter) == nil {
		fmt.Fprintf(stderr, "earthcc: warning: -func %q matches no function\n", *fnFilter)
	}
	switch *dump {
	case "ast":
		fmt.Fprint(out, earthc.Print(u.File))
	case "simple":
		for _, f := range u.Simple.Funcs {
			if wantFn(f) {
				fmt.Fprintln(out, simple.FuncString(f, simple.PrintOptions{Labels: *labels}))
			}
		}
	case "threaded":
		disasm, err := u.DisasmFunc(*fnFilter)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(out, disasm)
	case "placement":
		if u.Placement == nil {
			return fail(fmt.Errorf("placement sets require -O"))
		}
		for _, f := range u.Simple.Funcs {
			if !wantFn(f) {
				continue
			}
			fmt.Fprintf(out, "=== %s ===\n", f.Name)
			simple.WalkStmts(f.Body, func(s simple.Stmt) {
				if fa, ok := s.(*simple.Forall); ok {
					if hs := u.Placement.ForallHeads[fa]; hs.Len() > 0 {
						fmt.Fprintf(out, "  RemoteReads(head of forall C%d) = %s\n", fa.Site, hs)
					}
				}
				if b, ok := s.(*simple.Basic); ok {
					if rs := u.Placement.Reads[s]; rs.Len() > 0 {
						fmt.Fprintf(out, "  RemoteReads(S%d)  = %s\n", b.Label, rs)
					}
					if ws := u.Placement.Writes[s]; ws.Len() > 0 {
						fmt.Fprintf(out, "  RemoteWrites(S%d) = %s\n", b.Label, ws)
					}
				}
			})
		}
	default:
		return fail(fmt.Errorf("unknown -dump mode %q", *dump))
	}
	if *report && u.Report != nil {
		fmt.Fprintln(out, u.Report)
	}
	if *stats {
		printStats(out, res)
	}
	return 0
}

// printStats renders the compile's phase spans as a timing table and, for
// an optimized unit, the placement and selection counts it holds.
func printStats(out io.Writer, res *core.CompileResult) {
	var total int64
	for _, ph := range res.Phases {
		total += ph.End.Sub(ph.Start).Nanoseconds()
	}
	fmt.Fprintf(out, "compile phases (total %.3f ms):\n", float64(total)/1e6)
	for _, ph := range res.Phases {
		ns := ph.End.Sub(ph.Start).Nanoseconds()
		share := 0.0
		if total > 0 {
			share = float64(ns) / float64(total)
		}
		bar := int(share * 30)
		if ns > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(out, "  %-12s %10.3f ms %5.1f%% %s\n",
			ph.Name, float64(ns)/1e6, 100*share, strings.Repeat("#", bar))
	}
	u := res.Unit
	if u.Placement == nil {
		return
	}
	placedR, placedW := u.Placement.PlacedTuples()
	fmt.Fprintf(out, "placement: %d read / %d write candidates -> %d / %d placed tuples\n",
		u.Placement.CandidateReads, u.Placement.CandidateWrites, placedR, placedW)
	t := u.Report.Totals()
	fmt.Fprintf(out, "selection: reads %d pipelined + %d blocked (%d redundant eliminated); writes %d pipelined + %d blocked\n",
		t.PipelinedReads, t.BlockedReads, t.ReadsEliminated, t.PipelinedWrites, t.BlockedWrites)
}

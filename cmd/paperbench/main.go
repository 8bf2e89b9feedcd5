// Command paperbench regenerates the evaluation artifacts of Zhu & Hendren,
// "Communication Optimizations for Parallel C Programs" (PLDI 1998) on the
// simulated EARTH-MANNA machine:
//
//	-table1    Table I: communication operation costs
//	-table2    Table II: benchmark descriptions
//	-fig10     Figure 10: dynamic communication counts, simple vs optimized
//	-table3    Table III: execution times, speedups, improvements
//	-pgo       PGO ablation: static-heuristic vs profile-guided optimization
//	-faultsweep  reliable-messaging validation: each benchmark under
//	             increasing fault rates, checking completion and result
//	             fidelity
//	-all       everything (default when no flag given)
//
//	-nodes N       machine size for fig10, the PGO table and the fault
//	               sweep (default 4)
//	-procs list    comma-separated processor counts for table3
//	               (default 1,2,4,8,16)
//	-scale s       problem scale: quick | default (default "default")
//	-fault-seed N  PRNG seed for the fault sweep (default 1)
//	-json          emit one machine-readable JSON object instead of text
//
// The exit status is 0 on success, 1 if a measurement fails (or the fault
// sweep diverges) and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/olden"
)

// jsonReport is the -json output shape: one object per requested artifact.
type jsonReport struct {
	Table1     *harness.Table1Result     `json:"table1,omitempty"`
	Fig10      *harness.Fig10Result      `json:"fig10,omitempty"`
	Table3     *harness.Table3Result     `json:"table3,omitempty"`
	PGO        *harness.PGOResult        `json:"pgo,omitempty"`
	FaultSweep *harness.FaultSweepResult `json:"faultSweep,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	t1 := fs.Bool("table1", false, "Table I")
	t2 := fs.Bool("table2", false, "Table II")
	f10 := fs.Bool("fig10", false, "Figure 10")
	t3 := fs.Bool("table3", false, "Table III")
	pgo := fs.Bool("pgo", false, "PGO ablation table")
	faultSweep := fs.Bool("faultsweep", false, "fault-injection sweep over the benchmarks")
	all := fs.Bool("all", false, "everything")
	nodes := fs.Int("nodes", 4, "machine size for fig10, the PGO table and the fault sweep")
	procsFlag := fs.String("procs", "1,2,4,8,16", "processor counts for table3")
	scale := fs.String("scale", "default", "problem scale: quick|default")
	faultSeed := fs.Uint64("fault-seed", 1, "PRNG seed for the fault sweep")
	simJ := fs.Int("sim-j", 0, "goroutines running the simulator's event-loop windows per run (0 or 1 = inline); all measurements are identical for any value")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}

	if !*t1 && !*t2 && !*f10 && !*t3 && !*pgo && !*faultSweep {
		*all = true
	}
	var params func(*olden.Benchmark) olden.Params
	switch *scale {
	case "default":
		params = harness.DefaultParams
	case "quick":
		params = olden.QuickParams
	default:
		return fail(fmt.Errorf("unknown -scale %q", *scale))
	}
	harness.SimWorkers = *simJ
	var rep jsonReport

	if (*all || *t2) && !*asJSON {
		fmt.Fprintln(out, harness.Table2())
	}
	if *all || *t1 {
		res, err := harness.MeasureTable1()
		if err != nil {
			return fail(err)
		}
		rep.Table1 = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
	}
	if *all || *f10 {
		res, err := harness.MeasureFig10(*nodes, params)
		if err != nil {
			return fail(err)
		}
		rep.Fig10 = res
		if !*asJSON {
			fmt.Fprintln(out, res)
			fmt.Fprintln(out, res.Bars())
		}
	}
	if *all || *t3 {
		var procs []int
		for _, p := range strings.Split(*procsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 {
				return fail(fmt.Errorf("bad -procs element %q", p))
			}
			procs = append(procs, v)
		}
		res, err := harness.MeasureTable3(procs, params)
		if err != nil {
			return fail(err)
		}
		rep.Table3 = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
	}
	if *all || *pgo {
		res, err := harness.MeasurePGO(*nodes, params)
		if err != nil {
			return fail(err)
		}
		rep.PGO = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
	}
	if *all || *faultSweep {
		res, err := harness.MeasureFaultSweep(*nodes, nil, *faultSeed, params)
		if err != nil {
			return fail(err)
		}
		rep.FaultSweep = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
		if !res.Ok() {
			return fail(fmt.Errorf("fault sweep: a run failed or diverged (see table)"))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return fail(err)
		}
	}
	return 0
}

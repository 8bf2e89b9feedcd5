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
//	-out file      write the report to file instead of stdout (used by
//	               scripts/bench.sh to commit the fault sweep as
//	               BENCH_fault_prN.json)
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
	t1 := flag.Bool("table1", false, "Table I")
	t2 := flag.Bool("table2", false, "Table II")
	f10 := flag.Bool("fig10", false, "Figure 10")
	t3 := flag.Bool("table3", false, "Table III")
	pgo := flag.Bool("pgo", false, "PGO ablation table")
	faultSweep := flag.Bool("faultsweep", false, "fault-injection sweep over the benchmarks")
	all := flag.Bool("all", false, "everything")
	nodes := flag.Int("nodes", 4, "machine size for fig10, the PGO table and the fault sweep")
	procsFlag := flag.String("procs", "1,2,4,8,16", "processor counts for table3")
	scale := flag.String("scale", "default", "problem scale: quick|default")
	faultSeed := flag.Uint64("fault-seed", 1, "PRNG seed for the fault sweep")
	simJ := flag.Int("sim-j", 0, "goroutines running the simulator's event-loop windows per run (0 or 1 = inline); all measurements are identical for any value")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON")
	outPath := flag.String("out", "", "write the report to this file instead of stdout")
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	if !*t1 && !*t2 && !*f10 && !*t3 && !*pgo && !*faultSweep {
		*all = true
	}
	params := paramsFor(*scale)
	harness.SimWorkers = *simJ
	var rep jsonReport

	if (*all || *t2) && !*asJSON {
		fmt.Fprintln(out, harness.Table2())
	}
	if *all || *t1 {
		res, err := harness.MeasureTable1()
		if err != nil {
			fatal(err)
		}
		rep.Table1 = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
	}
	if *all || *f10 {
		res, err := harness.MeasureFig10(*nodes, params)
		if err != nil {
			fatal(err)
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
				fatal(fmt.Errorf("bad -procs element %q", p))
			}
			procs = append(procs, v)
		}
		res, err := harness.MeasureTable3(procs, params)
		if err != nil {
			fatal(err)
		}
		rep.Table3 = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
	}
	if *all || *pgo {
		res, err := harness.MeasurePGO(*nodes, params)
		if err != nil {
			fatal(err)
		}
		rep.PGO = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
	}
	if *all || *faultSweep {
		res, err := harness.MeasureFaultSweep(*nodes, nil, *faultSeed, params)
		if err != nil {
			fatal(err)
		}
		rep.FaultSweep = res
		if !*asJSON {
			fmt.Fprintln(out, res)
		}
		if !res.Ok() {
			fatal(fmt.Errorf("fault sweep: a run failed or diverged (see table)"))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fatal(err)
		}
	}
}

func paramsFor(scale string) func(*olden.Benchmark) olden.Params {
	switch scale {
	case "default":
		return harness.DefaultParams
	case "quick":
		return func(bm *olden.Benchmark) olden.Params {
			p := bm.DefaultParams
			switch bm.Name {
			case "power":
				p.Size, p.Iters = 8, 2
			case "perimeter":
				p.Size = 5
			case "tsp":
				p.Size = 64
			case "health":
				p.Size, p.Iters = 3, 20
			case "voronoi":
				p.Size = 96
			}
			return p
		}
	default:
		fatal(fmt.Errorf("unknown -scale %q", scale))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}

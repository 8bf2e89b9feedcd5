package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/trace"
)

// Generous safety limits for harness runs: the Olden benchmarks at default
// parameters execute well under a million EU instructions, so a run that
// burns a billion — or two minutes of host time — is stuck, not slow.
const (
	defaultFuel     = int64(2_000_000_000)
	defaultDeadline = 2 * time.Minute
)

// FaultSweepEntry is one (benchmark, fault-spec) measurement.
type FaultSweepEntry struct {
	Spec        string
	Completed   bool
	Err         string `json:",omitempty"`
	TimeNs      int64
	Inflation   float64 // simulated time vs the fault-free run, percent
	VisibleOK   bool    // program-visible Result identical to fault-free
	Stats       *earthsim.FaultStats
	MaxAttempt  int
	RetriesRPC  int64
	RetriesData int64
}

// FaultSweepRow is one benchmark's sweep across fault specs.
type FaultSweepRow struct {
	Benchmark string
	BaseNs    int64 // fault-free optimized run
	Entries   []FaultSweepEntry
}

// FaultSweepResult is the reliable-messaging validation table: each Olden
// benchmark run optimized under increasing fault rates, checking that every
// run still completes (via retries) with a program-visible Result identical
// to the fault-free run.
type FaultSweepResult struct {
	Nodes int
	Seed  uint64
	Rows  []FaultSweepRow
}

// DefaultFaultSpecs are the sweep points printed by `paperbench -faultsweep`.
var DefaultFaultSpecs = []string{
	"drop=0.01",
	"drop=0.05,dup=0.01",
	"drop=0.05,dup=0.01,delay=3",
	"drop=0.10,dup=0.02,delay=5,stall=0.01",
}

// MeasureFaultSweep runs every benchmark optimized on the given machine size,
// fault-free and then under each fault spec with the given seed.
func MeasureFaultSweep(nodes int, specs []string, seed uint64, paramsFor func(*olden.Benchmark) olden.Params) (*FaultSweepResult, error) {
	if len(specs) == 0 {
		specs = DefaultFaultSpecs
	}
	res := &FaultSweepResult{Nodes: nodes, Seed: seed}
	for _, bm := range olden.All() {
		base, u, err := measure(bm, bm.Source(paramsFor(bm)), optBuild, core.RunConfig{Nodes: nodes,
			Fuel: defaultFuel, Deadline: defaultDeadline}, nil)
		if err != nil {
			return nil, err
		}
		p := optBuild.pipeline()
		row := FaultSweepRow{Benchmark: bm.Name, BaseNs: base.Time}
		for _, spec := range specs {
			fc, err := earthsim.ParseFaultSpec(spec)
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: %w", spec, err)
			}
			if fc != nil && fc.Seed == 0 {
				fc.Seed = seed
			}
			e := FaultSweepEntry{Spec: spec}
			r, err := p.Run(u, core.RunConfig{Nodes: nodes, Faults: fc,
				Fuel: defaultFuel, Deadline: defaultDeadline})
			if err != nil {
				e.Err = err.Error()
			} else {
				e.Completed = true
				e.TimeNs = r.Time
				if base.Time > 0 {
					e.Inflation = 100 * (float64(r.Time)/float64(base.Time) - 1)
				}
				e.VisibleOK = r.Visible() == base.Visible()
				e.Stats = r.Faults
				if s := r.Faults; s != nil {
					e.MaxAttempt = s.MaxAttempt
					e.RetriesRPC = s.RetriesByClass[trace.ClassRPC] + s.RetriesByClass[trace.ClassReply]
					e.RetriesData = s.Retries - e.RetriesRPC
				}
			}
			row.Entries = append(row.Entries, e)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep as a table.
func (r *FaultSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: reliable messaging under injected faults, %d nodes, seed %d\n", r.Nodes, r.Seed)
	fmt.Fprintf(&b, "%-10s %-40s %9s %8s %8s %8s %6s %8s %s\n",
		"Benchmark", "faults", "time(ms)", "infl%", "retries", "drops", "maxTry", "dupSupp", "visible")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-40s %9.2f %8s %8s %8s %6s %8s %s\n",
			row.Benchmark, "none", float64(row.BaseNs)/1e6, "-", "-", "-", "-", "-", "baseline")
		for _, e := range row.Entries {
			if !e.Completed {
				fmt.Fprintf(&b, "%-10s %-40s FAILED: %s\n", "", e.Spec, e.Err)
				continue
			}
			visible := "identical"
			if !e.VisibleOK {
				visible = "DIVERGED"
			}
			s := e.Stats
			fmt.Fprintf(&b, "%-10s %-40s %9.2f %7.1f%% %8d %8d %6d %8d %s\n",
				"", e.Spec, float64(e.TimeNs)/1e6, e.Inflation,
				s.Retries, s.Drops, s.MaxAttempt, s.DupSuppressed, visible)
		}
	}
	return b.String()
}

// Ok reports whether every swept run completed with an identical
// program-visible result.
func (r *FaultSweepResult) Ok() bool {
	for _, row := range r.Rows {
		for _, e := range row.Entries {
			if !e.Completed || !e.VisibleOK {
				return false
			}
		}
	}
	return true
}

package trace

import (
	"fmt"
	"strings"
	"time"
)

// PhaseStat is one compiler phase's wall-clock time.
type PhaseStat struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// CompileStats records per-phase compiler timings and the headline counters
// of the communication optimization, collected by core.Pipeline when its
// Stats option is on. Timings are host wall-clock (not deterministic); the
// counters are properties of the compiled unit and are deterministic.
type CompileStats struct {
	Phases []PhaseStat `json:"phases"`

	// Candidate remote accesses entering placement (SIMPLE loads/stores
	// through possibly-remote pointers).
	CandidateReads  int `json:"candidate_reads"`
	CandidateWrites int `json:"candidate_writes"`
	// Placement tuples surviving to the final RemoteReads/RemoteWrites
	// sets, summed over statements (the paper's §4.1 output).
	PlacedReadTuples  int `json:"placed_read_tuples"`
	PlacedWriteTuples int `json:"placed_write_tuples"`
	// Communication selection results (§4.2).
	PipelinedReads  int `json:"pipelined_reads"`
	BlockedReads    int `json:"blocked_reads"`
	PipelinedWrites int `json:"pipelined_writes"`
	BlockedWrites   int `json:"blocked_writes"`
	ReadsEliminated int `json:"reads_eliminated"` // redundant ops removed by selection
}

// AddPhase appends a timed phase.
func (s *CompileStats) AddPhase(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.Phases = append(s.Phases, PhaseStat{Name: name, Ns: d.Nanoseconds()})
}

// TotalNs sums the phase times.
func (s *CompileStats) TotalNs() int64 {
	if s == nil {
		return 0
	}
	var t int64
	for _, p := range s.Phases {
		t += p.Ns
	}
	return t
}

// String renders the stats as a table.
func (s *CompileStats) String() string {
	var b strings.Builder
	total := s.TotalNs()
	fmt.Fprintf(&b, "compile phases (total %.3f ms):\n", float64(total)/1e6)
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "  %-12s %10.3f ms %5.1f%% %s\n",
			p.Name, float64(p.Ns)/1e6, pct(p.Ns, total), bar(p.Ns, total, 30))
	}
	fmt.Fprintf(&b, "placement: %d read / %d write candidates -> %d / %d placed tuples\n",
		s.CandidateReads, s.CandidateWrites, s.PlacedReadTuples, s.PlacedWriteTuples)
	fmt.Fprintf(&b, "selection: reads %d pipelined + %d blocked (%d redundant eliminated); writes %d pipelined + %d blocked\n",
		s.PipelinedReads, s.BlockedReads, s.ReadsEliminated,
		s.PipelinedWrites, s.BlockedWrites)
	return b.String()
}

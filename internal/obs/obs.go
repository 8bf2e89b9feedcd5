// Package obs is the host-side observability layer of the earthd service:
// per-job span timelines over monotonic wall-clock time, and the slog
// plumbing the daemons log through.
//
// Where internal/trace and internal/metrics explain what happened *inside* a
// simulated run (deterministic, simulated-time quantities), this package
// explains what happened to a job on its way *through* the service: queue
// wait, cache lookup, compile, simulate, journal fsync, respond. Those are
// wall-clock, host-dependent quantities, so everything here stays out of a
// run's telemetry — the DESIGN.md §8 byte-determinism contracts (what a run
// records into a registry, trace exports) never see a host timestamp, the
// same boundary metrics.ProcessCollector sits on.
//
// Observation never perturbs execution: recording happens outside the
// simulator entirely (the request path around it), and reading a timeline
// takes only that timeline's lock — a scrape never stalls a worker. Where a
// timeline is kept, and for how long, is the caller's business: earthd keeps
// a job's timeline on that job's index entry.
package obs

import (
	"sync"
	"time"
)

// Span kinds. Every stage of the earthd request path records under one of
// these stable names; tests, the stage histograms, and operators key on
// them.
const (
	KindAccept          = "accept"           // Submit entry → enqueue (validation, dedup, admission)
	KindJournalAppend   = "journal.append"   // child of accept: fsync the acceptance record
	KindQueueWait       = "queue.wait"       // enqueue → a worker dequeues the job
	KindCompile         = "compile"          // Pipeline.Do: cache lookup, then a real compile on a miss
	KindCacheLookup     = "cache.lookup"     // child of compile: unit-cache consultation
	KindSimRun          = "sim.run"          // the simulator run itself
	KindJournalComplete = "journal.complete" // the outcome record's journal append
	KindRespond         = "respond"          // index update + waiter notification
)

// CompilePhasePrefix prefixes the per-phase children of a compile span
// (e.g. "compile.sema"): the phase spans Pipeline.Do measured, at their
// own bounds.
const CompilePhasePrefix = "compile."

// Span is one recorded interval, relative to the trace's epoch.
type Span struct {
	Kind   string
	Start  int64 // ns since the trace epoch
	End    int64 // ns since the trace epoch; -1 while open
	Parent int   // index of the parent span; -1 for top-level stages
}

// JobTrace is one job's host-side timeline: a tree of spans over monotonic
// wall-clock time. The request path records into it from the submitting
// goroutine and then the worker goroutine (ordered by the queue handoff);
// the HTTP surface reads it concurrently through its mutex.
type JobTrace struct {
	mu     sync.Mutex
	jobID  string
	epoch  time.Time // trace time zero (submission entry); carries a monotonic reading
	status string    // "", or a terminal status once completed
	total  int64     // ns, set at Complete
	spans  []Span
	done   bool
}

// NewTrace starts the timeline of one job whose time zero is epoch.
func NewTrace(jobID string, epoch time.Time) *JobTrace {
	return &JobTrace{jobID: jobID, epoch: epoch}
}

// now returns the current trace-relative timestamp.
func (t *JobTrace) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Offset converts a host time to a trace-relative timestamp, for intervals
// measured outside the trace (a compile's phase spans).
func (t *JobTrace) Offset(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// Start opens a span of the given kind under parent (-1 for top-level) and
// returns its index.
func (t *JobTrace) Start(parent int, kind string) int {
	return t.StartAt(parent, kind, t.now())
}

// StartAt is Start with an explicit trace-relative start time, for spans
// that began before the trace object existed (the accept span covers
// validation that ran before admission was decided).
func (t *JobTrace) StartAt(parent int, kind string, startNs int64) int {
	return t.AddInterval(parent, kind, startNs, -1)
}

// End closes the span at index ix; a closed span stays as it was.
func (t *JobTrace) End(ix int) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[ix].End < 0 {
		t.spans[ix].End = now
	}
}

// Bounds returns the trace-relative start/end of the span at ix (end is -1
// while open).
func (t *JobTrace) Bounds(ix int) (startNs, endNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[ix].Start, t.spans[ix].End
}

// AddInterval records a span with explicit trace-relative bounds (endNs -1
// leaves it open): StartAt's open spans, and intervals measured elsewhere
// and recorded once they are over, like a compile's phases. Returns the
// span index.
func (t *JobTrace) AddInterval(parent int, kind string, startNs, endNs int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Kind: kind, Start: startNs, End: endNs, Parent: parent})
	return len(t.spans) - 1
}

// Complete closes any open spans at now, stamps the terminal status and the
// total, and marks the trace done. Idempotent.
func (t *JobTrace) Complete(status string) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.status = status
	t.total = now
	for i := range t.spans {
		if t.spans[i].End < 0 {
			t.spans[i].End = now
		}
	}
}

// TotalNs returns the completed trace's wall time (0 while live).
func (t *JobTrace) TotalNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Stage is one top-level span's duration — one observation of a stage
// histogram.
type Stage struct {
	Kind string
	Ns   int64
}

// Stages returns the durations of the trace's top-level spans, in recording
// order. Open spans report their duration so far.
func (t *JobTrace) Stages() []Stage {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Stage
	for _, sp := range t.spans {
		if sp.Parent != -1 {
			continue
		}
		end := sp.End
		if end < 0 {
			end = now
		}
		out = append(out, Stage{Kind: sp.Kind, Ns: end - sp.Start})
	}
	return out
}

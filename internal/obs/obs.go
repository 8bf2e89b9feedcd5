// Package obs is the host-side observability layer of the earthd service:
// per-job span timelines over monotonic wall-clock time, a bounded ring of
// completed timelines plus a reservoir of the slowest ones, and the slog
// plumbing the daemons log through.
//
// Where internal/trace and internal/metrics explain what happened *inside* a
// simulated run (deterministic, simulated-time quantities), this package
// explains what happened to a job on its way *through* the service: queue
// wait, cache lookup, compile, simulate, journal fsync, respond. Those are
// wall-clock, host-dependent quantities, so everything here lives
// deliberately outside the pipeline registries — the DESIGN.md §8
// byte-determinism contracts (telemetry series, trace exports) never see a
// host timestamp, the same boundary metrics.ProcessCollector sits on.
//
// Two contracts carry over from the trace/metrics subsystems:
//
//   - Zero cost when disabled. A nil *Recorder is a valid, disabled
//     recorder: NewTrace returns a nil *JobTrace whose methods are all
//     nil-safe no-ops, so an instrumentation point costs one nil check and
//     zero allocations (pinned by TestNilTraceZeroAllocs).
//
//   - Observation never perturbs execution. Recording happens outside the
//     simulator entirely (the request path around it), and reading a
//     timeline takes only that timeline's lock — a scrape never stalls a
//     worker.
package obs

import (
	"sync"
	"time"
)

// Span kinds. Every stage of the earthd request path records under one of
// these stable names; tests, the attribution report, and operators key on
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
// (e.g. "compile.sema"), derived from trace.CompileStats.
const CompilePhasePrefix = "compile."

// StageKinds lists the top-level span kinds in request-path order — the
// rows of the tail-latency attribution report.
var StageKinds = []string{
	KindAccept, KindQueueWait, KindCompile, KindSimRun, KindJournalComplete, KindRespond,
}

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
	inRing bool
	inSlow bool
}

// JobID returns the traced job's id ("" for nil).
func (t *JobTrace) JobID() string {
	if t == nil {
		return ""
	}
	return t.jobID
}

// now returns the current trace-relative timestamp.
func (t *JobTrace) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Start opens a span of the given kind under parent (-1 for top-level) and
// returns its index. Nil-safe: returns -1 on a nil trace, and every other
// method accepts -1.
func (t *JobTrace) Start(parent int, kind string) int {
	if t == nil {
		return -1
	}
	return t.StartAt(parent, kind, t.now())
}

// StartAt is Start with an explicit trace-relative start time, for spans
// that began before the trace object existed (the accept span covers
// validation that ran before admission was decided).
func (t *JobTrace) StartAt(parent int, kind string, startNs int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Kind: kind, Start: startNs, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// End closes the span at index ix. Nil-safe; ignores -1 and closed spans.
func (t *JobTrace) End(ix int) {
	if t == nil || ix < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix < len(t.spans) && t.spans[ix].End < 0 {
		t.spans[ix].End = now
	}
}

// Bounds returns the trace-relative start/end of the span at ix (end is -1
// while open). Nil-safe and tolerant of -1 indices (returns 0, -1).
func (t *JobTrace) Bounds(ix int) (startNs, endNs int64) {
	if t == nil || ix < 0 {
		return 0, -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix >= len(t.spans) {
		return 0, -1
	}
	return t.spans[ix].Start, t.spans[ix].End
}

// AddInterval records an already-finished span with explicit trace-relative
// bounds (used to reconstruct compile-phase children from CompileStats
// after the compile returns). Returns the span index, -1 on nil.
func (t *JobTrace) AddInterval(parent int, kind string, startNs, endNs int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Kind: kind, Start: startNs, End: endNs, Parent: parent})
	return len(t.spans) - 1
}

// complete closes any open spans at now, stamps the status and total, and
// marks the trace terminal. Idempotent.
func (t *JobTrace) complete(status string) {
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

// Done reports whether the trace has completed (false for nil).
func (t *JobTrace) Done() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// TotalNs returns the completed trace's wall time (0 while live or nil).
func (t *JobTrace) TotalNs() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Stage is one top-level span's duration — a row of the attribution report.
type Stage struct {
	Kind string
	Ns   int64
}

// Stages returns the durations of the trace's top-level spans, in recording
// order. Open spans report their duration so far. Nil-safe (nil slice).
func (t *JobTrace) Stages() []Stage {
	if t == nil {
		return nil
	}
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

// Options size the recorder.
type Options struct {
	// Enabled turns host-side tracing on. The zero value (disabled) makes
	// New return a nil recorder — the zero-cost path.
	Enabled bool
	// Recent bounds the ring of most recently completed timelines
	// (default 64).
	Recent int
	// Slowest bounds the reservoir of slowest completed timelines
	// (default 16).
	Slowest int
	// SlowJob, when positive, is the wall-time threshold above which a
	// completed job's timeline is dumped into the structured log.
	SlowJob time.Duration
}

func (o Options) withDefaults() Options {
	if o.Recent <= 0 {
		o.Recent = 64
	}
	if o.Slowest <= 0 {
		o.Slowest = 16
	}
	return o
}

// Recorder tracks job timelines: live (queued/running) traces by job id,
// a bounded ring of the most recently completed, and a reservoir of the
// slowest completed. Memory is bounded by Recent+Slowest+|live| timelines
// regardless of how many jobs flow through.
type Recorder struct {
	opt Options

	mu        sync.Mutex
	live      map[string]*JobTrace
	ring      []*JobTrace // completed, oldest first, len <= opt.Recent
	slow      []*JobTrace // completed, unordered reservoir, len <= opt.Slowest
	index     map[string]*JobTrace
	completed int64
}

// New builds a recorder, or returns nil (the valid, disabled recorder) when
// opt.Enabled is false.
func New(opt Options) *Recorder {
	if !opt.Enabled {
		return nil
	}
	return &Recorder{
		opt:   opt.withDefaults(),
		live:  make(map[string]*JobTrace),
		index: make(map[string]*JobTrace),
	}
}

// Enabled reports whether timelines are being recorded (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SlowJobThreshold returns the configured slow-job dump threshold (0 when
// disabled or nil).
func (r *Recorder) SlowJobThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.opt.SlowJob
}

// NewTrace creates a detached trace whose time zero is epoch. It is not yet
// visible to Lookup — the submission may still be rejected; call Track once
// the job is admitted. Returns nil on a nil recorder.
func (r *Recorder) NewTrace(jobID string, epoch time.Time) *JobTrace {
	if r == nil {
		return nil
	}
	return &JobTrace{jobID: jobID, epoch: epoch}
}

// Track registers an admitted job's trace as live, replacing any previous
// live trace under the same id (a cancelled id re-admitted runs fresh).
func (r *Recorder) Track(t *JobTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.live[t.jobID] = t
	r.mu.Unlock()
}

// Complete finalizes a tracked trace with the job's terminal status and
// files it into the ring and, when slow enough, the reservoir, evicting
// older timelines to stay within bounds.
func (r *Recorder) Complete(t *JobTrace, status string) {
	if r == nil || t == nil {
		return
	}
	t.complete(status)
	r.file(t)
}

// file moves a completed trace out of the live set and into the ring and,
// when slow enough, the reservoir.
func (r *Recorder) file(t *JobTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.completed++
	if r.live[t.jobID] == t {
		delete(r.live, t.jobID)
	}
	r.index[t.jobID] = t
	// Ring of the most recent.
	t.inRing = true
	r.ring = append(r.ring, t)
	if len(r.ring) > r.opt.Recent {
		old := r.ring[0]
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
		old.inRing = false
		r.dropLocked(old)
	}
	// Reservoir of the slowest. The reservoir is small (tens), so a linear
	// min scan beats heap bookkeeping.
	if len(r.slow) < r.opt.Slowest {
		t.inSlow = true
		r.slow = append(r.slow, t)
	} else if mi := r.minSlowLocked(); r.slow[mi].TotalNs() < t.TotalNs() {
		old := r.slow[mi]
		old.inSlow = false
		r.slow[mi] = t
		t.inSlow = true
		r.dropLocked(old)
	}
}

// minSlowLocked returns the index of the fastest reservoir entry.
func (r *Recorder) minSlowLocked() int {
	mi := 0
	for i := 1; i < len(r.slow); i++ {
		if r.slow[i].TotalNs() < r.slow[mi].TotalNs() {
			mi = i
		}
	}
	return mi
}

// dropLocked removes a timeline from the id index once neither the ring nor
// the reservoir holds it (and the index still points at this trace — a
// newer completion of the same id must not be evicted by an older one).
func (r *Recorder) dropLocked(t *JobTrace) {
	if !t.inRing && !t.inSlow && r.index[t.jobID] == t {
		delete(r.index, t.jobID)
	}
}

// Lookup returns the job's timeline: the live trace while it is queued or
// running, else its retained completed timeline. Nil when unknown (or the
// recorder is nil).
func (r *Recorder) Lookup(jobID string) *JobTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.live[jobID]; t != nil {
		return t
	}
	return r.index[jobID]
}

// Recent returns the retained completed timelines, newest first.
func (r *Recorder) Recent() []*JobTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*JobTrace, 0, len(r.ring))
	for i := len(r.ring) - 1; i >= 0; i-- {
		out = append(out, r.ring[i])
	}
	return out
}

// Slowest returns the slowest retained timelines, slowest first.
func (r *Recorder) Slowest() []*JobTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*JobTrace, len(r.slow))
	copy(out, r.slow)
	r.mu.Unlock()
	// Sort outside the lock; TotalNs of a completed trace is immutable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TotalNs() > out[j-1].TotalNs(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Stats reports the recorder's occupancy: live traces, ring and reservoir
// sizes, and total completions observed.
func (r *Recorder) Stats() (live, ring, slow int, completed int64) {
	if r == nil {
		return 0, 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live), len(r.ring), len(r.slow), r.completed
}

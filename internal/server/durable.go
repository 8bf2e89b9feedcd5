package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/contenthash"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Job lifecycle states, as reported by GET /jobs/{id}.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done" // terminal: success or deterministic failure
	StatusCancelled = "cancelled"
)

// jobState tracks one submission id through its lifecycle in the server's
// in-memory index (guarded by Server.jmu). Terminal states carry either the
// in-process outcome or, after a restart, the journaled completion record —
// both answer re-submissions and GET /jobs/{id} without re-running.
type jobState struct {
	jid     string
	status  string
	outcome *jobOutcome     // terminal, finished in this process
	rec     *journal.Record // terminal, recovered from the journal
	cancel  context.CancelCauseFunc
	// followers are duplicate in-flight submissions of the same id; each
	// buffered channel receives a copy of the outcome at finish.
	followers []chan jobOutcome
}

// cancelCause carries a human-readable abort reason through context
// cancellation into the job's 499 outcome.
type cancelCause struct{ reason string }

func (c *cancelCause) Error() string { return c.reason }

// dedupKey derives the submission's idempotency key: the client-supplied ID
// when present; otherwise, with journaling enabled, the content hash of the
// request itself (so identical jobs re-use one durable identity); otherwise
// a unique synthetic id (no deduplication — the pre-journal behavior).
func dedupKey(req *JobRequest, journaled bool, auto uint64) (string, *jobError) {
	if req.ID != "" {
		if len(req.ID) > 200 {
			return "", errf(400, "id: too long (%d bytes, max 200)", len(req.ID))
		}
		for _, c := range req.ID {
			if c <= ' ' || c > '~' {
				return "", errf(400, "id: printable non-space ASCII only")
			}
		}
		return req.ID, nil
	}
	if !journaled {
		return fmt.Sprintf("auto-%d", auto), nil
	}
	c := *req
	c.ID, c.Async = "", false // protocol fields don't define job identity
	b, err := json.Marshal(&c)
	if err != nil {
		return "", errf(400, "id: %v", err)
	}
	return contenthash.Parts("jobreq", string(b)), nil
}

// newJob builds the queued form of one accepted submission, including its
// cancellation context (wall deadline + explicit abort) and its host-side
// timeline anchored at t0 (submission entry).
func (s *Server) newJob(p prepared, jid string, t0 time.Time) *job {
	ctx := context.Background()
	var stopTimer context.CancelFunc
	if s.cfg.JobWallDeadline > 0 {
		ctx, stopTimer = context.WithTimeout(ctx, s.cfg.JobWallDeadline)
	}
	cctx, cancel := context.WithCancelCause(ctx)
	return &job{
		prepared:  p,
		id:        s.nextID.Add(1),
		jid:       jid,
		enq:       time.Now(),
		ctx:       cctx,
		cancel:    cancel,
		stopTimer: stopTimer,
		tr:        s.obs.NewTrace(jid, t0),
		qIx:       -1,
		res:       make(chan jobOutcome, 1),
	}
}

// servedOutcome builds the answer for a re-submission of a completed job:
// the stored payload with the replay markers set, or the recorded error with
// its original status.
func (st *jobState) servedOutcome(jid string) jobOutcome {
	if st.outcome != nil {
		if st.outcome.err != nil {
			return jobOutcome{err: st.outcome.err}
		}
		r := *st.outcome.result
		r.JobID, r.Replayed = jid, true
		return jobOutcome{result: &r}
	}
	if rec := st.rec; rec != nil {
		if rec.Status == 200 {
			var r JobResult
			if err := json.Unmarshal(rec.Result, &r); err != nil {
				return jobOutcome{err: errf(500, "journaled result unreadable: %v", err)}
			}
			r.JobID, r.Replayed = jid, true
			return jobOutcome{result: &r}
		}
		return jobOutcome{err: errf(rec.Status, "%s", rec.Error)}
	}
	return jobOutcome{err: errf(500, "job state lost")}
}

// cancelOutcome maps a fired cancellation context to the job's outcome: 504
// for the server-imposed wall deadline, 499 (the de-facto "client closed
// request" status) for explicit aborts and disconnects.
func cancelOutcome(j *job) jobOutcome {
	cause := context.Cause(j.ctx)
	if errors.Is(cause, context.DeadlineExceeded) {
		return jobOutcome{err: errf(504, "job exceeded its wall deadline and was aborted")}
	}
	reason := "cancelled"
	var cc *cancelCause
	if errors.As(cause, &cc) {
		reason = cc.reason
	}
	return jobOutcome{err: errf(499, "job cancelled: %s", reason)}
}

// Cancel requests a cooperative abort of a queued or running job. The job
// does not stop synchronously: its context fires now, the simulator traps at
// its next poll, and the outcome (499, journaled as cancelled) flows through
// the normal completion path. 404 for unknown ids, 409 for finished jobs.
func (s *Server) Cancel(jid, reason string) *jobError {
	s.jmu.Lock()
	st := s.jobs[jid]
	if st == nil {
		s.jmu.Unlock()
		return errf(404, "unknown job %q", jid)
	}
	if st.status == StatusDone || st.status == StatusCancelled {
		s.jmu.Unlock()
		return errf(409, "job %q already %s", jid, st.status)
	}
	cancel := st.cancel
	s.jmu.Unlock()
	if cancel != nil {
		cancel(&cancelCause{reason: reason})
	}
	s.reg.Counter("earthd_cancel_requests_total", "Cancellation requests accepted (DELETE, disconnect, deadline).").Inc()
	return nil
}

// JobStatus reports a submission's lifecycle state; for terminal jobs the
// outcome is included (ok=false for unknown ids).
func (s *Server) JobStatus(jid string) (status string, out jobOutcome, terminal, ok bool) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	st := s.jobs[jid]
	if st == nil {
		return "", jobOutcome{}, false, false
	}
	if st.status == StatusDone || st.status == StatusCancelled {
		return st.status, st.servedOutcome(jid), true, true
	}
	return st.status, jobOutcome{}, false, true
}

// setRunning flips the index entry when a worker picks the job up.
func (s *Server) setRunning(jid string) {
	s.jmu.Lock()
	if st := s.jobs[jid]; st != nil && st.status == StatusQueued {
		st.status = StatusRunning
	}
	s.jmu.Unlock()
}

// finish journals the outcome, resolves the index entry, notifies duplicate
// waiters, updates the drain-rate estimate, and delivers the outcome.
func (s *Server) finish(sh *shard, j *job, out jobOutcome, svcNs int64) {
	cancelled := out.err != nil && (out.err.status == 499 || out.err.status == 504)
	if s.jr != nil {
		// Journal failures must not fail the job — the run already happened;
		// the lag/error shows up in /healthz and /metrics instead.
		jcIx := j.tr.Start(-1, obs.KindJournalComplete)
		switch {
		case cancelled:
			_ = s.jr.Cancelled(j.jid, out.err.msg)
			s.journalRecord(journal.KindCancelled)
		case out.err != nil:
			_ = s.jr.Completed(j.jid, out.err.status, nil, out.err.msg)
			s.journalRecord(journal.KindCompleted)
		default:
			if b, err := json.Marshal(out.result); err == nil {
				_ = s.jr.Completed(j.jid, 200, b, "")
				s.journalRecord(journal.KindCompleted)
			}
		}
		j.tr.End(jcIx)
	}
	j.discard()

	rIx := j.tr.Start(-1, obs.KindRespond)
	s.jmu.Lock()
	st := s.jobs[j.jid]
	if st == nil {
		st = &jobState{jid: j.jid}
		s.jobs[j.jid] = st
	}
	st.status = StatusDone
	if cancelled {
		st.status = StatusCancelled
	}
	o := out
	st.outcome = &o
	st.cancel = nil
	followers := st.followers
	st.followers = nil
	s.jobOrder = append(s.jobOrder, j.jid)
	s.evictLocked()
	s.jmu.Unlock()
	for _, ch := range followers {
		ch <- out // each follower channel is buffered 1
	}
	j.tr.End(rIx)

	if svcNs > 0 {
		ewmaUpdate(&s.svcEwmaNs, svcNs)
	}
	switch {
	case cancelled:
		s.reg.Counter("earthd_jobs_cancelled_total", "Jobs aborted by cancellation (DELETE, disconnect, or wall deadline).").Inc()
	case out.err != nil:
		s.reg.Counter("earthd_jobs_failed_total", "Accepted jobs that failed to compile or run.").Inc()
	}
	s.completed.Add(1)
	sh.jobs.Add(1)
	s.reg.Counter("earthd_jobs_completed_total", "Jobs completed (success, failure, or cancellation).").Inc()
	// Finalize the timeline (and observe its stage histograms) before the
	// outcome is delivered, so a client that reads its result and
	// immediately curls /jobs/{id}/timeline always finds the completed tree.
	status := StatusDone
	if cancelled {
		status = StatusCancelled
	}
	s.completeTrace(j, out, status)
	j.res <- out
}

// evictLocked caps the terminal-state index at RetainResults entries,
// oldest-finished first (jmu held). Stale order entries — ids re-accepted
// after cancellation — are skipped.
func (s *Server) evictLocked() {
	for len(s.jobOrder) > s.cfg.RetainResults {
		id := s.jobOrder[0]
		s.jobOrder = s.jobOrder[1:]
		if st := s.jobs[id]; st != nil && (st.status == StatusDone || st.status == StatusCancelled) {
			delete(s.jobs, id)
		}
	}
}

// recover loads the journal's restart state: completed records answer
// re-submissions from the index, and pending (accepted, never finished)
// jobs replay through the normal queue on a background goroutine tracked by
// replayWg — Drain waits for it, so replay and graceful shutdown compose.
func (s *Server) recover(rec *journal.Recovery) {
	for id, r := range rec.Completed {
		r := r
		s.jobs[id] = &jobState{jid: id, status: StatusDone, rec: &r}
		s.jobOrder = append(s.jobOrder, id)
	}
	s.evictLocked()
	var replay []*job
	for _, r := range rec.Pending {
		j, err := s.rebuild(r)
		if err != nil {
			// The journaled request no longer validates (schema drift, a
			// benchmark renamed). Close it out rather than replaying forever.
			_ = s.jr.Cancelled(r.ID, fmt.Sprintf("unreplayable after recovery: %v", err))
			s.journalRecord(journal.KindCancelled)
			continue
		}
		s.jobs[j.jid] = &jobState{jid: j.jid, status: StatusQueued, cancel: j.cancel}
		replay = append(replay, j)
	}
	if len(replay) == 0 {
		return
	}
	s.replayWg.Add(1)
	go func() {
		defer s.replayWg.Done()
		for _, j := range replay {
			j.qIx = j.tr.Start(-1, obs.KindQueueWait)
			s.obs.Track(j.tr)
			s.queue <- j // blocking: the queue closes only after replayWg
			s.accepted.Add(1)
			s.reg.Counter("earthd_jobs_replayed_total", "Journaled jobs replayed through the queue after a restart.").Inc()
		}
	}()
}

// rebuild reconstructs a queued job from its journaled acceptance record,
// re-running the same validation Submit applied originally.
func (s *Server) rebuild(r journal.Record) (*job, error) {
	var req JobRequest
	if err := json.Unmarshal(r.Req, &req); err != nil {
		return nil, err
	}
	p, jerr := prepare(&req)
	if jerr != nil {
		return nil, jerr
	}
	return s.newJob(p, r.ID, time.Now()), nil
}

func (s *Server) journalRecord(kind string) {
	s.reg.Counter(fmt.Sprintf("earthd_journal_records_total{kind=%q}", kind),
		"Journal records appended by kind.").Inc()
}

// ewmaUpdate folds v into the exponentially-weighted moving average with
// alpha = 1/5. Concurrent updates may lose an occasional sample — the
// estimate feeds Retry-After hints, not accounting.
func ewmaUpdate(a *atomic.Int64, v int64) {
	old := a.Load()
	if old == 0 {
		a.Store(v)
		return
	}
	a.Store(old + (v-old)/5)
}

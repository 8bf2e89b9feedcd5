// Package server implements earthd, the long-lived sharded
// compile-and-simulate service over core.Pipeline: jobs (EARTH-C source ×
// cost-model/fault config) arrive over HTTP/JSON, flow through a bounded
// queue with backpressure, and execute on one of N pipeline shards. Three
// properties make it a traffic-serving system rather than a CLI in a loop:
//
//   - Backpressure, not buffering. The job queue is bounded; when it is
//     full the service answers 429 with a Retry-After hint instead of
//     accepting unbounded work. A draining server answers 503.
//
//   - One shared compile cache. Every shard compiles through the server's
//     content-hashed unit cache (internal/cache), keyed by the source hash
//     plus the compile-relevant options, so a repeated program costs one
//     hash and one map lookup; compilation is deterministic, so identical
//     requests produce byte-identical result payloads whether they were
//     served from the cache or compiled cold.
//
//   - Aggregated observability. Each shard records into its own
//     metrics.Registry (no cross-shard contention); every /metrics scrape
//     folds the shard registries, the service registry, and process-level
//     runtime metrics into one exposition via metrics.Merge.
//
// Drain (wired to SIGTERM in cmd/earthd) stops intake, lets the workers
// finish every accepted job, and only then releases the HTTP server — an
// accepted job is never lost to a shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes the service.
type Config struct {
	// Shards is the number of pipeline shards, each with a dedicated worker
	// goroutine and its own metrics registry (default GOMAXPROCS, capped at
	// 8).
	Shards int
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// with 429 + Retry-After.
	QueueDepth int
	// Workers is the per-compile analysis worker count (core.Options.Workers;
	// default 1 — shard-level parallelism is usually the better use of cores
	// under load).
	Workers int
	// DefaultNodes is the machine size for jobs that don't specify one
	// (default 4).
	DefaultNodes int
	// MaxFuel caps simulated EU instructions per job, including jobs that
	// ask for no limit, so one runaway program cannot pin a shard forever
	// (default 500M; set negative for unlimited).
	MaxFuel int64
	// JobDeadline bounds host wall-clock time per job run (default 60s).
	JobDeadline time.Duration
	// SimWorkers bounds the goroutines running each job's event-loop windows
	// (earthsim.Config.SimWorkers; 0 or 1 = inline). Results are bit-identical
	// for every value, so this is purely a throughput knob.
	SimWorkers int
	// RetryAfter is the hint returned with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// CacheSize caps the shared compile cache (units; default
	// cache.DefaultCapacity, negative disables caching entirely).
	CacheSize int
	// JournalDir, when set, enables the crash-safety layer: every accepted
	// job is journaled (fsynced) before its acceptance is acknowledged, and
	// on restart unfinished jobs replay through the queue while completed
	// ones answer re-submissions from their journaled payloads. Empty
	// disables journaling entirely (zero hot-path cost).
	JournalDir string
	// JobWallDeadline bounds a job's wall-clock time from acceptance to
	// completion (queue wait included); exceeding it aborts the run via its
	// cancellation context and answers 504. 0 disables. Distinct from
	// JobDeadline, which bounds only the simulator run.
	JobWallDeadline time.Duration
	// RetainResults caps the terminal-job index serving GET /jobs/{id} and
	// exactly-once re-submission (default 4096, oldest evicted first; also
	// the journal's completion-retention window).
	RetainResults int
	// Obs configures host-side job tracing (GET /jobs/{id}/timeline,
	// /debug/jobs, per-stage latency histograms). Disabled by default — a
	// disabled recorder is nil and costs one nil check per instrumentation
	// point.
	Obs obs.Options
	// Logger receives the server's structured diagnostics (job lifecycle,
	// slow-job timeline dumps, access log). Nil discards everything.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DefaultNodes <= 0 {
		c.DefaultNodes = 4
	}
	if c.MaxFuel == 0 {
		c.MaxFuel = 500_000_000
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RetainResults <= 0 {
		c.RetainResults = 4096
	}
	return c
}

// shard is one execution lane: a dedicated worker goroutine draining the
// shared queue into this shard's pipelines. The registry, trace recorder,
// and sampler are per-shard so the hot path never contends across shards;
// the recorder and sampler are reused job to job (the worker is sequential)
// and the scrape endpoints read the registry and sampler concurrently
// through their own locks.
type shard struct {
	id      int
	reg     *metrics.Registry
	rec     *trace.Recorder
	sampler *metrics.Sampler
	jobs    atomic.Int64 // jobs completed on this shard
	// pipes are the shard's two pipelines, keyed by JobRequest.optimize: a
	// job compiles and runs on the same one.
	pipes map[bool]*core.Pipeline
}

// Server is the sharded compile-and-simulate service.
type Server struct {
	cfg    Config
	reg    *metrics.Registry // service-level registry
	proc   *metrics.ProcessCollector
	shards []*shard
	cache  *cache.Cache // shared across shards; nil when CacheSize < 0
	start  time.Time

	// obs records per-job host-side span timelines (nil when disabled).
	// Like proc, it lives outside the shard pipeline registries: host
	// wall-clock quantities never reach the byte-deterministic telemetry.
	obs *obs.Recorder
	log *slog.Logger
	// logDebug/logInfo cache the logger's level gates so hot paths skip
	// slog's argument boxing entirely when a level is off (handler levels
	// are fixed at construction).
	logDebug bool
	logInfo  bool

	mu       sync.Mutex // guards draining + queue close
	draining bool
	queue    chan *job

	// jr is the durability journal (nil when Config.JournalDir is empty);
	// jmu guards the submission index (jobs + jobOrder), and replayWg
	// tracks the restart-replay feeder so Drain can wait for it before
	// closing the queue.
	jr       *journal.Journal
	jmu      sync.Mutex
	jobs     map[string]*jobState
	jobOrder []string
	replayWg sync.WaitGroup

	// svcEwmaNs estimates per-job service time (drives Retry-After);
	// waitEwmaNs estimates queue wait (reported by /healthz).
	svcEwmaNs  atomic.Int64
	waitEwmaNs atomic.Int64

	nextID    atomic.Uint64
	accepted  atomic.Int64
	completed atomic.Int64

	wg sync.WaitGroup
}

// New builds a server and starts its shard workers. It panics if the
// configuration cannot be realized, which is only possible with JournalDir
// set (an unopenable journal directory); journaled deployments should use
// Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds a server, recovers its journal (when Config.JournalDir is
// set), and starts its shard workers. Journaled jobs left unfinished by the
// previous process re-enter the queue in the background; completed ones
// answer re-submissions from their journaled payloads.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   metrics.NewRegistry(),
		proc:  metrics.NewProcessCollector(),
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*jobState),
		start: time.Now(),
		obs:   obs.New(cfg.Obs),
		log:   cfg.Logger,
	}
	if s.log == nil {
		s.log = obs.Discard()
	} else {
		s.logDebug = s.log.Enabled(context.Background(), slog.LevelDebug)
		s.logInfo = s.log.Enabled(context.Background(), slog.LevelInfo)
	}
	if cfg.CacheSize >= 0 {
		s.cache = cache.New(cfg.CacheSize, "")
	}
	var rec *journal.Recovery
	if cfg.JournalDir != "" {
		jr, r, err := journal.Open(cfg.JournalDir, journal.Options{Retain: cfg.RetainResults})
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		s.jr, rec = jr, r
	}
	s.reg.Gauge("earthd_shards", "Pipeline shards serving the job queue.").Set(int64(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:      i,
			reg:     metrics.NewRegistry(),
			rec:     trace.NewRecorder(0),
			sampler: metrics.NewSampler(0, 0),
			pipes:   make(map[bool]*core.Pipeline, 2),
		}
		for _, optimize := range []bool{false, true} {
			sh.pipes[optimize] = core.NewPipeline(core.Options{
				Optimize: optimize,
				Workers:  cfg.Workers,
				Metrics:  sh.reg,
				Cache:    s.cache,
				// With tracing on, keep the per-phase stats on the unit so
				// the job's compile span gets phase children.
				Stats: s.obs.Enabled(),
			})
		}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.worker(sh)
	}
	if rec != nil {
		s.recover(rec)
	}
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submission describes one accepted (or deduplicated) submission.
type Submission struct {
	// JobID is the submission's idempotency key — the handle for
	// GET/DELETE /jobs/{id}.
	JobID string
	// Res receives the job's outcome exactly once.
	Res <-chan jobOutcome
	// Served reports that the outcome was answered from a completed job's
	// record (already buffered on Res) without running anything.
	Served bool
	// Owner reports that this submission enqueued the job (as opposed to
	// coalescing onto an identical in-flight one); only the owner's client
	// disconnect should cancel it.
	Owner bool
}

// Submit validates req and places it on the queue. A *jobError return means
// the job was NOT accepted: 400 for validation failures, 429 when the queue
// is full, 503 when the server is draining. Once accepted, a job always
// produces exactly one outcome on Submission.Res, even through a drain. The
// flow:
//
//  1. validate (400s happen before any state is touched);
//  2. consult the index: a completed id answers from its record (journaled
//     payloads survive restarts), an in-flight id coalesces, a cancelled id
//     re-runs;
//  3. backpressure: drain (503), queue full (429 with a measured
//     Retry-After);
//  4. with journaling on, fsync the acceptance record — only then is the
//     job visible to workers and its acceptance acknowledged.
func (s *Server) Submit(req *JobRequest) (*Submission, *jobError) {
	t0 := time.Now() // epoch of the job's host-side timeline
	p, jerr := prepare(req)
	if jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}
	jid, jerr := dedupKey(req, s.jr != nil, s.nextID.Add(1))
	if jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}

	s.jmu.Lock()
	if st := s.jobs[jid]; st != nil {
		switch st.status {
		case StatusDone:
			out := st.servedOutcome(jid)
			s.jmu.Unlock()
			ch := make(chan jobOutcome, 1)
			ch <- out
			s.reg.Counter("earthd_jobs_deduped_total", "Re-submissions answered from a completed job's record without running.").Inc()
			return &Submission{JobID: jid, Res: ch, Served: true}, nil
		case StatusQueued, StatusRunning:
			ch := make(chan jobOutcome, 1)
			st.followers = append(st.followers, ch)
			s.jmu.Unlock()
			s.reg.Counter("earthd_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job.").Inc()
			return &Submission{JobID: jid, Res: ch}, nil
		case StatusCancelled:
			// An explicit re-submission of a cancelled job runs fresh: the
			// cancellation closed that attempt, not the id.
			delete(s.jobs, jid)
		}
	}
	s.jmu.Unlock()

	j := s.newJob(p, jid, t0)
	// The accept span starts at the timeline epoch: it covers the
	// validation that ran before the trace object existed.
	accIx := j.tr.StartAt(-1, obs.KindAccept, 0)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.discard()
		s.reject("draining")
		return nil, errf(503, "server is draining")
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		j.discard()
		s.reject("queue_full")
		return nil, errf(429, "queue full (%d jobs deep); retry later", s.cfg.QueueDepth)
	}
	if s.jr != nil {
		// The durability point: the acceptance record is on disk before the
		// client hears 200/202. A journal that cannot write cannot promise,
		// so the job is refused rather than accepted volatile.
		jIx := j.tr.Start(accIx, obs.KindJournalAppend)
		b, err := json.Marshal(req)
		if err == nil {
			err = s.jr.Accepted(jid, b)
		}
		j.tr.End(jIx)
		if err != nil {
			s.mu.Unlock()
			j.discard()
			s.reject("journal")
			return nil, errf(503, "journal write failed: %v", err)
		}
		s.journalRecord(journal.KindAccepted)
	}
	// Register the index entry before the job becomes visible to a worker.
	s.jmu.Lock()
	s.jobs[jid] = &jobState{jid: jid, status: StatusQueued, cancel: j.cancel}
	s.jmu.Unlock()
	// The job is now accepted: close the accept stage, open queue.wait, and
	// make the timeline visible to GET /jobs/{id}/timeline. Rejected paths
	// above never Track, so their traces simply drop.
	j.tr.End(accIx)
	j.qIx = j.tr.Start(-1, obs.KindQueueWait)
	s.obs.Track(j.tr)
	// Space was checked above and every non-replay sender holds s.mu, so
	// this send can block only momentarily behind the restart replayer.
	s.queue <- j
	s.mu.Unlock()
	s.accepted.Add(1)
	s.reg.Counter("earthd_jobs_accepted_total", "Jobs accepted into the queue.").Inc()
	if s.logDebug {
		s.log.Debug("job accepted", "job", jid, "name", j.name, "queue_len", len(s.queue))
	}
	return &Submission{JobID: jid, Res: j.res, Owner: true}, nil
}

func (s *Server) reject(reason string) {
	s.reg.Counter(fmt.Sprintf("earthd_jobs_rejected_total{reason=%q}", reason),
		"Jobs rejected before entering the queue.").Inc()
}

// Drain stops intake and waits (bounded by ctx) for the workers to finish
// every accepted job — including journaled jobs still being replayed after
// a restart. Idempotent; concurrent calls all wait. On a complete drain the
// journal is synced and closed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		// The replayer's jobs are journaled acceptances from the previous
		// process — as binding as any 202 this process issued — so they must
		// all be queued before the queue can close.
		s.replayWg.Wait()
		s.mu.Lock()
		// Closing the queue still delivers every buffered job to the
		// workers; they exit when it is empty.
		close(s.queue)
		s.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.jr != nil {
			if err := s.jr.Close(); err != nil {
				return fmt.Errorf("drain: journal close: %w", err)
			}
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w (%d of %d accepted jobs completed)",
			ctx.Err(), s.completed.Load(), s.accepted.Load())
	}
}

// Draining reports whether intake has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker drains the shared queue into one shard until drain closes it.
// Jobs whose context fired while they were still queued (DELETE before a
// worker reached them, or a wall deadline consumed by queue wait) resolve
// without executing.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	for j := range s.queue {
		var out jobOutcome
		var svcNs int64
		j.tr.End(j.qIx)
		if j.ctx.Err() != nil {
			out = cancelOutcome(j)
		} else {
			s.setRunning(j.jid)
			t0 := time.Now()
			out = s.execute(sh, j)
			svcNs = time.Since(t0).Nanoseconds()
		}
		s.finish(sh, j, out, svcNs)
	}
}

// execute runs one job on sh. Compile errors and run failures (traps,
// deadlocks, exhausted limits) map to 422: the request was well-formed but
// the program is not executable as submitted.
func (s *Server) execute(sh *shard, j *job) jobOutcome {
	queueNs := time.Since(j.enq).Nanoseconds()
	s.reg.Histogram("earthd_queue_wait_ns", "Host time jobs spent queued.").Observe(queueNs)
	ewmaUpdate(&s.waitEwmaNs, queueNs)

	req := j.req
	nodes := req.Nodes
	if nodes <= 0 {
		nodes = s.cfg.DefaultNodes
	}
	fuel := req.Fuel
	if s.cfg.MaxFuel > 0 && (fuel <= 0 || fuel > s.cfg.MaxFuel) {
		fuel = s.cfg.MaxFuel
	}

	cIx := j.tr.Start(-1, obs.KindCompile)
	t0 := time.Now()
	pipe := sh.pipes[req.optimize()]
	cres, err := pipe.Do(core.CompileRequest{Name: j.name, Source: j.src, Cache: j.policy})
	compileNs := time.Since(t0).Nanoseconds()
	j.tr.End(cIx)
	if err != nil {
		return jobOutcome{err: errf(422, "compile: %v", err)}
	}
	u := cres.Unit
	compileChildren(j.tr, cIx, cres.Hit, u)

	// Traced jobs record into the shard's recorder; the worker is
	// sequential, so Reset-per-job reuse is safe.
	var rec *trace.Recorder
	if req.TraceSummary {
		sh.rec.Reset()
		rec = sh.rec
	}
	sh.sampler.Reset()
	rIx := j.tr.Start(-1, obs.KindSimRun)
	t0 = time.Now()
	res, err := pipe.Run(u, core.RunConfig{
		Nodes:      nodes,
		Sequential: req.Sequential,
		Machine:    j.machine,
		SimWorkers: s.cfg.SimWorkers,
		Fuel:       fuel,
		Deadline:   s.cfg.JobDeadline,
		Faults:     j.faults,
		Trace:      rec,
		Sampler:    sh.sampler,
		Context:    j.ctx,
	})
	runNs := time.Since(t0).Nanoseconds()
	j.tr.End(rIx)
	if err != nil {
		if errors.Is(err, earthsim.ErrCanceled) {
			return cancelOutcome(j)
		}
		return jobOutcome{err: errf(422, "run: %v", err)}
	}

	r := &JobResult{
		ID:         j.id,
		JobID:      j.jid,
		Name:       j.name,
		Benchmark:  req.Benchmark,
		SourceHash: u.SourceHash,
		Shard:      sh.id,
		Nodes:      nodes,
		Optimized:  req.optimize(),
		TimeNs:     res.Time,
		Output:     res.Output,
		MainRet:    res.MainRet,
		Counts:     res.Counts,
		Faults:     res.Faults,
		Warnings:   u.Warnings,
		QueueNs:    queueNs,
		CompileNs:  compileNs,
		RunNs:      runNs,
	}
	if req.TraceSummary {
		sum := sh.rec.Summarize()
		r.TraceSummary = sum.String()
		brief := sum.Brief()
		r.Trace = &brief
	}
	return jobOutcome{result: r}
}

// MergedRegistry folds the service registry, every shard registry, and the
// latest process-metrics snapshot into one point-in-time registry — the
// body of a /metrics scrape.
func (s *Server) MergedRegistry() *Registry {
	s.reg.Gauge("earthd_queue_depth", "Jobs currently queued.").Set(int64(len(s.queue)))
	if s.jr != nil {
		st := s.jr.Stats()
		s.reg.Gauge("earthd_journal_lag", "Journal records appended but not yet fsynced.").Set(int64(st.Lag))
		s.reg.Gauge("earthd_journal_segments", "Live journal segment files.").Set(int64(st.Segments))
		s.reg.Gauge("earthd_journal_pending_jobs", "Journaled jobs with no outcome record yet.").Set(int64(st.PendingJobs))
		s.reg.Gauge("earthd_journal_compactions", "Journal snapshot compactions since open.").Set(st.Compactions)
		s.reg.Gauge("earthd_journal_corrupt_records", "Journal records dropped by checksum validation on open.").Set(st.CorruptRecords)
	}
	s.proc.Collect()
	regs := make([]*metrics.Registry, 0, len(s.shards)+2)
	regs = append(regs, s.reg, s.proc.Registry())
	for _, sh := range s.shards {
		regs = append(regs, sh.reg)
	}
	return metrics.Merge(regs...)
}

// Registry aliases metrics.Registry for the package's public surface.
type Registry = metrics.Registry

package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Host-side observability glue: how the span recorder in internal/obs meets
// the request path, and the HTTP surface that serves it. Everything here is
// wall-clock and host-dependent, so it stays out of the shard pipeline
// registries — the byte-deterministic telemetry (DESIGN.md §8) never sees it.

const stageHistHelp = "Host wall time per request-path stage (tail-latency attribution)."

func stageHistName(kind string) string {
	return fmt.Sprintf("earthd_stage_ns{stage=%q}", kind)
}

// compileChildren reconstructs the compile span's children after the fact
// from what Pipeline.Do reported: a cache hit spent the whole span
// consulting the cache; a fresh compile gets a cache.lookup residue followed
// by the per-phase durations from trace.CompileStats, laid out sequentially
// from the span start (with Workers > 1 phases overlap in reality, so the
// sequential layout is an attribution, not a literal schedule).
func compileChildren(tr *obs.JobTrace, cIx int, hit bool, u *core.Unit) {
	if tr == nil || cIx < 0 {
		return
	}
	start, end := tr.Bounds(cIx)
	if end < 0 {
		return
	}
	st := u.Stats
	if hit || st == nil || len(st.Phases) == 0 {
		tr.AddInterval(cIx, obs.KindCacheLookup, start, end)
		return
	}
	var phaseNs int64
	for _, p := range st.Phases {
		phaseNs += p.Ns
	}
	cur := start
	if lookup := end - start - phaseNs; lookup > 0 {
		tr.AddInterval(cIx, obs.KindCacheLookup, cur, cur+lookup)
		cur += lookup
	}
	for _, p := range st.Phases {
		e := cur + p.Ns
		if e > end {
			e = end
		}
		tr.AddInterval(cIx, obs.CompilePhasePrefix+p.Name, cur, e)
		cur = e
	}
}

// completeTrace finalizes a job's timeline: files it into the ring and
// reservoir, feeds the per-stage attribution histograms, and dumps the
// timeline into the structured log when the job exceeded the slow-job
// threshold. Called before the outcome is delivered so the completed tree
// is always visible to a client that just received its result.
func (s *Server) completeTrace(j *job, out jobOutcome, status string) {
	if j.tr == nil {
		return
	}
	s.obs.Complete(j.tr, status)
	for _, st := range j.tr.Stages() {
		s.reg.Histogram(stageHistName(st.Kind), stageHistHelp).Observe(st.Ns)
	}
	total := j.tr.TotalNs()
	s.reg.Histogram("earthd_job_wall_ns", "Host wall time per job from submission entry to completion.").Observe(total)
	if thr := s.obs.SlowJobThreshold(); thr > 0 && total >= int64(thr) {
		s.reg.Counter("earthd_slow_jobs_total", "Jobs exceeding the slow-job threshold (timeline dumped to the log).").Inc()
		var b strings.Builder
		_ = j.tr.Snapshot().WriteText(&b)
		s.log.Warn("slow job", "job", j.jid, "status", status,
			"wall", time.Duration(total).String(), "threshold", thr.String(),
			"timeline", b.String())
	}
	if s.logDebug {
		errMsg := ""
		if out.err != nil {
			errMsg = out.err.msg
		}
		s.log.Debug("job completed", "job", j.jid, "status", status,
			"wall", time.Duration(total).String(), "err", errMsg)
	}
}

// handleTimeline serves GET /jobs/{id}/timeline: the job's host-side span
// tree — live (open spans report elapsed-so-far) or completed, as long as
// the ring or the slowest-jobs reservoir still retains it.
// ?format=json (default) | text | chrome (trace_event, opens in Perfetto).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	jid := r.PathValue("id")
	if !s.obs.Enabled() {
		s.writeJobError(w, errf(404, "timelines disabled (start earthd with -obs)"))
		return
	}
	tr := s.obs.Lookup(jid)
	if tr == nil {
		s.writeJobError(w, errf(404, "no timeline for job %q (unknown id, or evicted from the timeline ring)", jid))
		return
	}
	tl := tr.Snapshot()
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		tl.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tl.WriteText(w)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		tl.WriteChrome(w)
	default:
		s.writeJobError(w, errf(400, "format: want json, text, or chrome"))
	}
}

// stageQuantiles is one row of the tail-latency attribution report.
type stageQuantiles struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P95Ns int64  `json:"p95_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// stageAttribution reads the per-stage histograms back out of the service
// registry — the same series /metrics exports — as p50/p95/p99 rows.
func (s *Server) stageAttribution() []stageQuantiles {
	var out []stageQuantiles
	for _, kind := range obs.StageKinds {
		snap := s.reg.Histogram(stageHistName(kind), stageHistHelp).Snapshot()
		if snap.N == 0 {
			continue
		}
		out = append(out, stageQuantiles{
			Stage: kind,
			Count: snap.N,
			P50Ns: snap.Quantile(0.50),
			P95Ns: snap.Quantile(0.95),
			P99Ns: snap.Quantile(0.99),
		})
	}
	return out
}

// handleDebugJobs serves GET /debug/jobs: the recent and slowest timeline
// tables plus the tail-latency attribution report. ?format=json for the
// machine-readable form (the same histogram data /metrics.json exports).
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	if !s.obs.Enabled() {
		s.writeJobError(w, errf(404, "timelines disabled (start earthd with -obs)"))
		return
	}
	recent := s.obs.Recent()
	slowest := s.obs.Slowest()
	attrib := s.stageAttribution()
	if r.URL.Query().Get("format") == "json" {
		resp := struct {
			Attribution []stageQuantiles `json:"attribution"`
			Recent      []*obs.Timeline  `json:"recent"`
			Slowest     []*obs.Timeline  `json:"slowest"`
		}{Attribution: attrib}
		for _, t := range recent {
			resp.Recent = append(resp.Recent, t.Snapshot())
		}
		for _, t := range slowest {
			resp.Slowest = append(resp.Slowest, t.Snapshot())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
		return
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	bw := bufio.NewWriter(w)
	live, ring, slow, completed := s.obs.Stats()
	fmt.Fprintf(bw, "earthd job timelines — %d live, %d recent, %d slowest retained, %d completed\n\n",
		live, ring, slow, completed)
	if len(attrib) > 0 {
		fmt.Fprintf(bw, "tail-latency attribution (all completed jobs):\n")
		fmt.Fprintf(bw, "  %-18s %10s %12s %12s %12s\n", "STAGE", "COUNT", "P50", "P95", "P99")
		for _, a := range attrib {
			fmt.Fprintf(bw, "  %-18s %10d %12s %12s %12s\n", a.Stage, a.Count,
				time.Duration(a.P50Ns), time.Duration(a.P95Ns), time.Duration(a.P99Ns))
		}
		fmt.Fprintln(bw)
	}
	table := func(title string, traces []*obs.JobTrace) {
		if len(traces) == 0 {
			return
		}
		fmt.Fprintf(bw, "%s:\n", title)
		fmt.Fprintf(bw, "  %-44s %-10s %12s %12s %12s %12s\n", "JOB", "STATUS", "WALL", "QUEUE", "COMPILE", "SIM")
		for _, t := range traces {
			tl := t.Snapshot()
			var queue, compile, sim int64
			for _, sp := range tl.Spans {
				switch sp.Kind {
				case obs.KindQueueWait:
					queue = sp.DurNs
				case obs.KindCompile:
					compile = sp.DurNs
				case obs.KindSimRun:
					sim = sp.DurNs
				}
			}
			status := tl.Status
			if status == "" {
				status = "live"
			}
			fmt.Fprintf(bw, "  %-44s %-10s %12s %12s %12s %12s\n",
				tl.JobID, status, time.Duration(tl.WallNs),
				time.Duration(queue), time.Duration(compile), time.Duration(sim))
		}
		fmt.Fprintln(bw)
	}
	table("recent (newest first)", recent)
	table("slowest", slowest)
	fmt.Fprintf(bw, "per-job detail: GET /jobs/{id}/timeline?format=text\n")
	bw.Flush()
}

// handleBuildinfo serves GET /buildinfo: the binary's identity (module
// version, VCS revision, toolchain) plus the service shape.
func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		obs.Build
		Shards     int  `json:"shards"`
		QueueDepth int  `json:"queue_depth"`
		SimWorkers int  `json:"sim_workers,omitempty"`
		Journaled  bool `json:"journaled"`
		Obs        bool `json:"obs"`
	}{
		Build:      obs.Info(),
		Shards:     s.cfg.Shards,
		QueueDepth: s.cfg.QueueDepth,
		SimWorkers: s.cfg.SimWorkers,
		Journaled:  s.jr != nil,
		Obs:        s.obs.Enabled(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// accessLog wraps the service mux with a structured access-log line per
// request. With no logger configured (the library default) the handler is
// returned unwrapped — zero per-request cost.
func (s *Server) accessLog(h http.Handler) http.Handler {
	if !s.logInfo {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("request", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "dur", time.Since(t0).String(),
			"remote", r.RemoteAddr)
	})
}

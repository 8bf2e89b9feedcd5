package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Host-side observability glue: how the job timelines of internal/obs meet
// the request path, and the HTTP surface that serves them. Everything here
// is wall-clock and host-dependent; no run's telemetry (DESIGN.md §8) ever
// sees it.

const stageHistHelp = "Host wall time per request-path stage (tail-latency attribution)."

func stageHistName(kind string) string {
	return fmt.Sprintf("earthd_stage_ns{stage=%q}", kind)
}

// compileChildren records the compile span's children: each phase the
// compile ran at its measured bounds, preceded by a cache.lookup from the
// span's start to the first phase. A cache hit ran no phase, so its one
// child is the lookup over the whole span.
func compileChildren(tr *obs.JobTrace, cIx int, phases []core.Phase) {
	start, end := tr.Bounds(cIx)
	if len(phases) > 0 {
		end = tr.Offset(phases[0].Start)
	}
	tr.AddInterval(cIx, obs.KindCacheLookup, start, end)
	for _, ph := range phases {
		tr.AddInterval(cIx, obs.CompilePhasePrefix+ph.Name, tr.Offset(ph.Start), tr.Offset(ph.End))
	}
}

// completeTrace finalizes a job's timeline: feeds the per-stage
// attribution histograms, and dumps the timeline into the structured log
// when the job exceeded the slow-job threshold. Called before the outcome is
// delivered so the completed tree is always visible to a client that just
// received its result.
func (s *Server) completeTrace(j *job, out jobOutcome, status string) {
	j.tr.Complete(status)
	for _, st := range j.tr.Stages() {
		s.reg.Histogram(stageHistName(st.Kind), stageHistHelp).Observe(st.Ns)
	}
	total := j.tr.TotalNs()
	s.reg.Histogram("earthd_job_wall_ns", "Host wall time per job from submission entry to completion.").Observe(total)
	if thr := s.cfg.SlowJob; thr > 0 && total >= int64(thr) {
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
// tree — live (open spans report elapsed-so-far) or completed, for exactly
// as long as GET /jobs/{id} answers. ?format=json (default) | text |
// chrome (trace_event, opens in Perfetto).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	jid := r.PathValue("id")
	s.jmu.Lock()
	st := s.jobs[jid]
	var tr *obs.JobTrace
	if st != nil {
		tr = st.tr
	}
	s.jmu.Unlock()
	switch {
	case st == nil:
		s.writeJobError(w, errf(404, "unknown job %q", jid))
		return
	case tr == nil:
		s.writeJobError(w, errf(404, "job %q completed before a restart: timelines are not journaled", jid))
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

// handleBuildinfo serves GET /buildinfo: the binary's identity (module
// version, VCS revision, toolchain) plus the service shape.
func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		obs.Build
		Shards     int  `json:"shards"`
		QueueDepth int  `json:"queue_depth"`
		Journaled  bool `json:"journaled"`
	}{
		Build:      obs.Info(),
		Shards:     s.cfg.Shards,
		QueueDepth: s.cfg.QueueDepth,
		Journaled:  s.jr != nil,
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

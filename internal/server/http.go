package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP mux:
//
//	POST   /jobs        submit one JobRequest, respond with its JobResult
//	                    (or, with "async": true, 202 + the job id at once)
//	GET    /jobs/{id}   the job's lifecycle state; terminal states carry
//	                    the result or recorded error
//	GET    /jobs/{id}/timeline  the job's host-side span tree
//	                    (?format=json|text|chrome), live or retained
//	DELETE /jobs/{id}   request a cooperative abort of a queued/running job
//	GET    /debug/jobs  recent/slowest timelines + tail-latency attribution
//	GET    /buildinfo   binary identity (version, VCS revision, Go version)
//	GET    /metrics     Prometheus text: service + all shards + process,
//	                    merged into one exposition
//	GET    /metrics.json  the same merged registry as JSON
//	GET    /healthz     liveness, queue occupancy, shard + journal status
//	GET    /series.json?shard=N  the shard's current-run simulator time series
//
// Submission status codes: 200 success; 202 accepted (async) or cancelling;
// 400 malformed or invalid request; 422 well-formed but
// uncompilable/unrunnable program; 429 queue full (with Retry-After); 499
// cancelled; 503 draining or journal failure (with Retry-After); 504 wall
// deadline exceeded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "earthd compile-and-simulate service\n\n"+
			"POST   /jobs         submit one job (JSON; \"async\": true for 202 + poll)\n"+
			"GET    /jobs/{id}    job status (queued/running/done/cancelled)\n"+
			"GET    /jobs/{id}/timeline  host-side span tree (?format=json|text|chrome)\n"+
			"DELETE /jobs/{id}    abort a queued or running job\n"+
			"GET    /debug/jobs   recent/slowest timelines + tail-latency attribution\n"+
			"GET    /buildinfo    binary identity (version, VCS revision, Go) + config\n"+
			"GET    /metrics      aggregated Prometheus exposition\n"+
			"GET    /metrics.json aggregated registry as JSON\n"+
			"GET    /healthz      liveness + queue + shard + journal status\n"+
			"GET    /series.json  per-shard simulator time series (?shard=N)\n")
	})
	mux.HandleFunc("/jobs", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /buildinfo", s.handleBuildinfo)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.MergedRegistry().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.MergedRegistry().WriteJSON(w)
	})
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/series.json", s.handleSeries)
	return s.accessLog(mux)
}

// retryAfter stamps the backpressure hint on 429/503 responses, computed
// from the measured drain rate: the queue's current depth times the per-job
// service-time EWMA, divided across the shard workers. Before any job has
// completed (EWMA empty) the configured static hint applies.
func (s *Server) retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
}

func (s *Server) retryAfterSecs() int {
	svc := s.svcEwmaNs.Load()
	if svc <= 0 {
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	est := int64(len(s.queue)+1) * svc / int64(len(s.shards))
	secs := int((est + int64(time.Second) - 1) / int64(time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeJobError renders a job-level failure as JSON with its status code.
func (s *Server) writeJobError(w http.ResponseWriter, jerr *jobError) {
	if jerr.status == 429 || jerr.status == 503 {
		s.retryAfter(w)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(jerr.status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{jerr.msg})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "POST a JobRequest JSON body", http.StatusMethodNotAllowed)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields() // schema v1: unknown fields are a 400, not silently dropped
	if err := dec.Decode(&req); err != nil {
		s.reject("invalid")
		s.writeJobError(w, errf(400, "bad request body: %v", err))
		return
	}
	sub, jerr := s.Submit(&req)
	if jerr != nil {
		s.writeJobError(w, jerr)
		return
	}
	if req.Async {
		if sub.Served {
			// Already completed (exactly-once re-submission): the recorded
			// outcome is buffered, so "async" degenerates to the sync answer.
			s.respondOutcome(w, <-sub.Res)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(struct {
			JobID  string `json:"job_id"`
			Status string `json:"status"`
		}{sub.JobID, StatusQueued})
		return
	}
	select {
	case out := <-sub.Res:
		s.respondOutcome(w, out)
	case <-r.Context().Done():
		// Client gone. If this submission owns the job (it wasn't coalesced
		// onto another client's in-flight one), fire its cancellation so the
		// simulator stops promptly; the worker's buffered send still
		// completes and the 499 outcome is journaled like any other.
		if sub.Owner {
			_ = s.Cancel(sub.JobID, "client disconnected")
		}
	}
}

// respondOutcome renders a job outcome as the HTTP response.
func (s *Server) respondOutcome(w http.ResponseWriter, out jobOutcome) {
	if out.err != nil {
		s.writeJobError(w, out.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out.result)
}

// handleJobStatus reports a submission's lifecycle state; terminal states
// include the stored result (or the recorded error and its status code).
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	jid := r.PathValue("id")
	status, out, terminal, ok := s.JobStatus(jid)
	if !ok {
		s.writeJobError(w, errf(404, "unknown job %q", jid))
		return
	}
	resp := struct {
		JobID  string     `json:"job_id"`
		Status string     `json:"status"`
		Code   int        `json:"code,omitempty"`
		Error  string     `json:"error,omitempty"`
		Result *JobResult `json:"result,omitempty"`
	}{JobID: jid, Status: status}
	if terminal {
		if out.err != nil {
			resp.Code, resp.Error = out.err.status, out.err.msg
		} else {
			resp.Result = out.result
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleJobDelete requests a cooperative abort. 202: the cancellation fired
// and the job's 499 outcome will flow through the normal completion (and
// journaling) path; 404 unknown id; 409 already finished.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	jid := r.PathValue("id")
	if jerr := s.Cancel(jid, "client request"); jerr != nil {
		s.writeJobError(w, jerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
	}{jid, "cancelling"})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	type shardHealth struct {
		Shard int   `json:"shard"`
		Jobs  int64 `json:"jobs"`
	}
	type journalHealth struct {
		// Lag counts records appended but not yet fsynced — the journal's
		// durability debt at this instant.
		Lag         int   `json:"lag"`
		Segments    int   `json:"segments"`
		PendingJobs int   `json:"pending_jobs"`
		Compactions int64 `json:"compactions"`
	}
	h := struct {
		Status    string `json:"status"`
		Draining  bool   `json:"draining"`
		UptimeMs  int64  `json:"uptime_ms"`
		QueueLen  int    `json:"queue_len"`
		QueueCap  int    `json:"queue_cap"`
		Accepted  int64  `json:"accepted"`
		Completed int64  `json:"completed"`
		// The measured EWMAs: service time drives Retry-After; queue wait is
		// the waiting term that rises before throughput flattens.
		SvcEwmaNs      int64          `json:"svc_ewma_ns"`
		QueueWaitEwma  int64          `json:"queue_wait_ewma_ns"`
		RetryAfterSecs int            `json:"retry_after_secs"`
		Journal        *journalHealth `json:"journal,omitempty"`
		Shards         []shardHealth  `json:"shards"`
	}{
		Status:         "ok",
		Draining:       s.Draining(),
		UptimeMs:       time.Since(s.start).Milliseconds(),
		QueueLen:       len(s.queue),
		QueueCap:       s.cfg.QueueDepth,
		Accepted:       s.accepted.Load(),
		Completed:      s.completed.Load(),
		SvcEwmaNs:      s.svcEwmaNs.Load(),
		QueueWaitEwma:  s.waitEwmaNs.Load(),
		RetryAfterSecs: s.retryAfterSecs(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	if s.jr != nil {
		st := s.jr.Stats()
		h.Journal = &journalHealth{
			Lag:         st.Lag,
			Segments:    st.Segments,
			PendingJobs: st.PendingJobs,
			Compactions: st.Compactions,
		}
	}
	for _, sh := range s.shards {
		h.Shards = append(h.Shards, shardHealth{Shard: sh.id, Jobs: sh.jobs.Load()})
	}
	w.Header().Set("Content-Type", "application/json")
	if h.Draining {
		// A draining server is about to go away: load balancers should stop
		// routing to it, but the body still reports progress for operators.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// handleSeries serves one shard's current-run simulator time series: the
// shard's deterministic sampler, read through its lock while the shard runs.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	shardIx := 0
	if v := r.URL.Query().Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n >= len(s.shards) {
			http.Error(w, fmt.Sprintf("shard must be in [0,%d)", len(s.shards)), http.StatusBadRequest)
			return
		}
		shardIx = n
	}
	w.Header().Set("Content-Type", "application/json")
	s.shards[shardIx].sampler.WriteSeriesJSON(w)
}

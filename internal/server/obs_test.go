package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// obsConfig is the standard observability-enabled test server shape.
func obsConfig(shards, queue int) Config {
	return Config{Shards: shards, QueueDepth: queue, Obs: obs.Options{Enabled: true}}
}

// getTimeline fetches one job's timeline and decodes it.
func getTimeline(t *testing.T, base, jid string) (*obs.Timeline, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + jid + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, resp.StatusCode
	}
	var tl obs.Timeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	return &tl, 200
}

// topSpans indexes a timeline's top-level spans by kind.
func topSpans(tl *obs.Timeline) map[string]obs.SpanNode {
	m := make(map[string]obs.SpanNode, len(tl.Spans))
	for _, sp := range tl.Spans {
		m[sp.Kind] = sp
	}
	return m
}

// TestTimelineDoneJob: a completed job's timeline is served over HTTP with
// the full stage tree, in all three encodings, and its stage durations sum
// (within tolerance — the gaps are scheduler handoffs) to the wall latency.
func TestTimelineDoneJob(t *testing.T) {
	s := New(obsConfig(2, 8))
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r, jerr := submitWait(t, s, &JobRequest{ID: "tl-done", Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}

	tl, code := getTimeline(t, ts.URL, "tl-done")
	if code != 200 {
		t.Fatalf("GET timeline = %d, want 200", code)
	}
	if tl.JobID != "tl-done" || tl.Status != StatusDone || !tl.Done {
		t.Fatalf("timeline header = %q/%q/done=%t", tl.JobID, tl.Status, tl.Done)
	}
	if tl.WallNs <= 0 {
		t.Fatalf("wall_ns = %d, want > 0", tl.WallNs)
	}
	spans := topSpans(tl)
	for _, want := range []string{obs.KindAccept, obs.KindQueueWait, obs.KindCompile,
		obs.KindSimRun, obs.KindRespond} {
		sp, ok := spans[want]
		if !ok {
			t.Errorf("timeline missing top-level span %q (have %v)", want, tl.Spans)
			continue
		}
		if sp.Open || sp.DurNs < 0 {
			t.Errorf("span %q open=%t dur=%d after completion", want, sp.Open, sp.DurNs)
		}
	}
	// Fresh compile with host tracing on: the compile span carries phase
	// children reconstructed from CompileStats.
	if c, ok := spans[obs.KindCompile]; ok {
		phase := false
		for _, ch := range c.Children {
			if strings.HasPrefix(ch.Kind, obs.CompilePhasePrefix) {
				phase = true
			}
		}
		if !phase {
			t.Errorf("compile span has no phase children: %+v", c.Children)
		}
	}
	// The top-level stages tile the job's wall time; only scheduler handoffs
	// (accept→queue, dequeue→compile, …) are unattributed.
	var sum int64
	for _, sp := range tl.Spans {
		sum += sp.DurNs
	}
	if sum > tl.WallNs+int64(time.Millisecond) {
		t.Errorf("stage sum %d exceeds wall %d", sum, tl.WallNs)
	}
	if sum < tl.WallNs/2 {
		t.Errorf("stage sum %d covers under half of wall %d — stages missing?", sum, tl.WallNs)
	}
	// Cross-check against the result's own host-latency fields: both clocks
	// watched the same queue wait and simulator run. They bracket slightly
	// different windows (the span opens after the accept stage closes), so
	// the bound is 2x plus absolute slack, both directions.
	agree := func(name string, span, reported int64) {
		const slack = int64(50 * time.Millisecond)
		if span > 2*reported+slack || reported > 2*span+slack {
			t.Errorf("%s span %d vs result %d", name, span, reported)
		}
	}
	agree("queue.wait", spans[obs.KindQueueWait].DurNs, r.QueueNs)
	agree("sim.run", spans[obs.KindSimRun].DurNs, r.RunNs)

	// Text and Chrome encodings of the same timeline.
	for _, tc := range []struct{ format, want string }{
		{"text", "status=done"},
		{"text", obs.KindQueueWait},
		{"chrome", `"displayTimeUnit":"ns"`},
		{"chrome", `"ph":"X"`},
	} {
		resp, err := http.Get(ts.URL + "/jobs/tl-done/timeline?format=" + tc.format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("format=%s: status %d, body missing %q", tc.format, resp.StatusCode, tc.want)
		}
	}
	if resp, err := http.Get(ts.URL + "/jobs/tl-done/timeline?format=yaml"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("unknown format = %d, want 400", resp.StatusCode)
		}
	}
	if _, code := getTimeline(t, ts.URL, "no-such-job"); code != 404 {
		t.Errorf("unknown job timeline = %d, want 404", code)
	}
}

// TestTimelineLiveAndCancelled: a running job serves a live timeline with
// open spans; after cancellation the retained timeline reports cancelled
// with every span closed.
func TestTimelineLiveAndCancelled(t *testing.T) {
	s := New(obsConfig(1, 4))
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The live-timeline fetch below happens between "running" and Cancel, so
	// the job must outlast an HTTP round trip by a wide margin: quadruple
	// slowListSrc's walk count.
	verySlowSrc := strings.Replace(slowListSrc, "r < 2500", "r < 10000", 1)
	sub, jerr := s.Submit(&JobRequest{ID: "tl-live", Source: verySlowSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _, _, ok := s.JobStatus("tl-live"); ok && st == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	tl, code := getTimeline(t, ts.URL, "tl-live")
	if code != 200 {
		t.Fatalf("live timeline = %d, want 200", code)
	}
	if tl.Done || tl.Status != "" {
		t.Errorf("live timeline done=%t status=%q, want live", tl.Done, tl.Status)
	}
	open := false
	for _, sp := range tl.Spans {
		if sp.Open {
			open = true
		}
	}
	if !open {
		t.Errorf("live timeline has no open span: %+v", tl.Spans)
	}

	if jerr := s.Cancel("tl-live", "test abort"); jerr != nil {
		t.Fatal(jerr)
	}
	out := <-sub.Res
	if out.err == nil || out.err.status != 499 {
		t.Fatalf("cancelled outcome = %+v, want 499", out)
	}
	tl, code = getTimeline(t, ts.URL, "tl-live")
	if code != 200 {
		t.Fatalf("cancelled timeline = %d, want 200", code)
	}
	if !tl.Done || tl.Status != StatusCancelled {
		t.Errorf("cancelled timeline done=%t status=%q", tl.Done, tl.Status)
	}
	var assertClosed func(spans []obs.SpanNode)
	assertClosed = func(spans []obs.SpanNode) {
		for _, sp := range spans {
			if sp.Open {
				t.Errorf("span %q still open after cancellation", sp.Kind)
			}
			assertClosed(sp.Children)
		}
	}
	assertClosed(tl.Spans)
}

// TestTimelineQueuedJob: a job still waiting in the queue already has a
// timeline — accept closed, queue.wait open.
func TestTimelineQueuedJob(t *testing.T) {
	s := New(obsConfig(1, 4))
	defer drainServer(t, s)

	busy, jerr := s.Submit(&JobRequest{Source: slowListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the busy job")
		}
		time.Sleep(time.Millisecond)
	}
	sub, jerr := s.Submit(&JobRequest{ID: "tl-queued", Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	tr := s.obs.Lookup("tl-queued")
	if tr == nil {
		t.Fatal("no live trace for the queued job")
	}
	spans := topSpans(tr.Snapshot())
	if sp, ok := spans[obs.KindAccept]; !ok || sp.Open {
		t.Errorf("accept span = %+v, want closed", sp)
	}
	if sp, ok := spans[obs.KindQueueWait]; !ok || !sp.Open {
		t.Errorf("queue.wait span = %+v, want open while queued", sp)
	}
	<-busy.Res
	<-sub.Res
}

// TestTimelineRingBoundedServer: the ring and reservoir caps hold through
// the real request path — sustained distinct jobs leave exactly Recent+
// Slowest retained traces and nothing live.
func TestTimelineRingBoundedServer(t *testing.T) {
	s := New(Config{Shards: 2, QueueDepth: 16,
		Obs: obs.Options{Enabled: true, Recent: 4, Slowest: 2}})
	defer drainServer(t, s)

	const n = 12
	for i := 0; i < n; i++ {
		src := remoteListSrc + strings.Repeat("\n", i) // distinct hash per job
		if _, jerr := submitWait(t, s, &JobRequest{ID: fmt.Sprintf("ring-%d", i), Source: src, Nodes: 2}); jerr != nil {
			t.Fatalf("job %d: %v", i, jerr)
		}
	}
	live, ring, slow, completed := s.obs.Stats()
	if live != 0 || ring != 4 || slow != 2 || completed != n {
		t.Errorf("stats = live %d ring %d slow %d completed %d, want 0/4/2/%d",
			live, ring, slow, completed, n)
	}
	if tr := s.obs.Lookup(fmt.Sprintf("ring-%d", n-1)); tr == nil {
		t.Error("newest completed job evicted from the ring")
	}
}

// TestObsDisabledSurface: with observability off the endpoints 404 with a
// hint, jobs carry no trace, and the scrape carries no host-stage series.
func TestObsDisabledSurface(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, jerr := submitWait(t, s, &JobRequest{ID: "dark", Source: remoteListSrc, Nodes: 2}); jerr != nil {
		t.Fatal(jerr)
	}
	for _, path := range []string{"/jobs/dark/timeline", "/debug/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 404 || !strings.Contains(buf.String(), "-obs") {
			t.Errorf("%s with obs off = %d %q, want 404 naming -obs", path, resp.StatusCode, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := s.MergedRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"earthd_stage_ns", "earthd_job_wall_ns"} {
		if strings.Contains(buf.String(), leak) {
			t.Errorf("scrape carries %q with observability disabled", leak)
		}
	}
}

// TestTimelineConcurrentReads hammers the timeline and debug endpoints while
// jobs execute — the race-detector leg for the snapshot paths.
func TestTimelineConcurrentReads(t *testing.T) {
	s := New(obsConfig(2, 32))
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, path := range []string{"/jobs/cc-0/timeline", "/jobs/cc-3/timeline",
		"/debug/jobs", "/debug/jobs?format=json", "/metrics"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	const n = 8
	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			src := remoteListSrc + strings.Repeat("\n", i%3)
			if _, jerr := submitWait(t, s, &JobRequest{ID: fmt.Sprintf("cc-%d", i), Source: src, Nodes: 2}); jerr != nil {
				t.Errorf("job %d: %v", i, jerr)
			}
		}(i)
	}
	writers.Wait()
	close(done)
	readers.Wait()
}

// TestDebugJobsEndpoint: after a few completed jobs /debug/jobs reports the
// attribution table and the retained timelines, in both encodings.
func TestDebugJobsEndpoint(t *testing.T) {
	s := New(obsConfig(2, 8))
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 3
	for i := 0; i < n; i++ {
		src := remoteListSrc + strings.Repeat("\n", i)
		if _, jerr := submitWait(t, s, &JobRequest{ID: fmt.Sprintf("dbg-%d", i), Source: src, Nodes: 2}); jerr != nil {
			t.Fatal(jerr)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{"tail-latency attribution", obs.KindQueueWait,
		obs.KindSimRun, "dbg-0", "dbg-2", "recent (newest first)"} {
		if !strings.Contains(text, want) {
			t.Errorf("/debug/jobs missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/jobs?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var dbg struct {
		Attribution []stageQuantiles `json:"attribution"`
		Recent      []*obs.Timeline  `json:"recent"`
		Slowest     []*obs.Timeline  `json:"slowest"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dbg)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]stageQuantiles{}
	for _, a := range dbg.Attribution {
		byStage[a.Stage] = a
	}
	for _, stage := range []string{obs.KindQueueWait, obs.KindCompile, obs.KindSimRun} {
		a, ok := byStage[stage]
		if !ok || a.Count < n {
			t.Errorf("attribution for %q = %+v, want count >= %d", stage, a, n)
		}
		if a.P99Ns < a.P50Ns {
			t.Errorf("%s: p99 %d < p50 %d", stage, a.P99Ns, a.P50Ns)
		}
	}
	if len(dbg.Recent) != n || len(dbg.Slowest) != n {
		t.Errorf("recent=%d slowest=%d, want %d each", len(dbg.Recent), len(dbg.Slowest), n)
	}
}

// TestScrapeHelpTypeComplete audits the full merged exposition: every sample
// family — service, shard pipelines, process, host stages — carries a # HELP
// and a # TYPE header.
func TestScrapeHelpTypeComplete(t *testing.T) {
	s := New(obsConfig(2, 8))
	defer drainServer(t, s)

	for i := 0; i < 2; i++ {
		src := remoteListSrc + strings.Repeat("\n", i)
		if _, jerr := submitWait(t, s, &JobRequest{Source: src, Nodes: 2}); jerr != nil {
			t.Fatal(jerr)
		}
	}
	var buf bytes.Buffer
	if err := s.MergedRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	help := map[string]bool{}
	typ := map[string]bool{}
	var samples []string
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) < 2 || strings.TrimSpace(f[1]) == "" {
				t.Errorf("empty help text: %q", line)
			}
			help[f[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			typ[f[0]] = true
		default:
			samples = append(samples, line)
		}
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	base := func(s string) string {
		name := s
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		} else if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		// Histogram series share their family's header.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && (help[trimmed] || typ[trimmed]) {
				return trimmed
			}
		}
		return name
	}
	for _, line := range samples {
		name := base(line)
		if !typ[name] {
			t.Errorf("sample %q has no # TYPE header for %q", line, name)
		}
		if !help[name] {
			t.Errorf("sample %q has no # HELP header for %q", line, name)
		}
	}
	if !typ["earthd_stage_ns"] || !help["earthd_stage_ns"] {
		t.Error("host stage histograms missing from the exposition")
	}
}

// TestBuildinfoEndpoint: /buildinfo reports the binary identity plus the
// service shape.
func TestBuildinfoEndpoint(t *testing.T) {
	s := New(obsConfig(3, 8))
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bi struct {
		GoVersion  string `json:"go_version"`
		Shards     int    `json:"shards"`
		QueueDepth int    `json:"queue_depth"`
		Journaled  bool   `json:"journaled"`
		Obs        bool   `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	if bi.GoVersion == "" {
		t.Error("buildinfo missing go_version")
	}
	if bi.Shards != 3 || bi.QueueDepth != 8 || bi.Journaled || !bi.Obs {
		t.Errorf("buildinfo shape = %+v", bi)
	}
}

// TestHealthzEwma: after a completed job /healthz carries the measured
// service-time EWMA that drives Retry-After and the queue-wait EWMA.
func TestHealthzEwma(t *testing.T) {
	s := New(obsConfig(1, 4))
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 2}); jerr != nil {
		t.Fatal(jerr)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		SvcEwmaNs      int64 `json:"svc_ewma_ns"`
		QueueWaitEwma  int64 `json:"queue_wait_ewma_ns"`
		RetryAfterSecs int   `json:"retry_after_secs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.SvcEwmaNs <= 0 {
		t.Errorf("svc_ewma_ns = %d after a completed job, want > 0", h.SvcEwmaNs)
	}
	if h.QueueWaitEwma < 0 || h.RetryAfterSecs < 1 {
		t.Errorf("queue_wait_ewma_ns=%d retry_after_secs=%d", h.QueueWaitEwma, h.RetryAfterSecs)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowJobLoggedAndAccessLog: a job over the slow-job threshold dumps its
// timeline into the structured log, the access log records the HTTP request,
// and the slow-job counter increments.
func TestSlowJobLoggedAndAccessLog(t *testing.T) {
	var buf syncBuffer
	logger, err := obs.NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Shards: 1, QueueDepth: 4,
		Obs:    obs.Options{Enabled: true, SlowJob: time.Nanosecond},
		Logger: logger})
	ts := httptest.NewServer(s.Handler())

	resp := postJSON(t, ts.URL+"/jobs", &JobRequest{ID: "tortoise", Source: remoteListSrc, Nodes: 2})
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	ts.Close()
	drainServer(t, s)

	out := buf.String()
	slow, access, accepted := false, false, false
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		switch rec["msg"] {
		case "slow job":
			slow = true
			tl, _ := rec["timeline"].(string)
			if !strings.Contains(tl, obs.KindSimRun) || !strings.Contains(tl, "status=done") {
				t.Errorf("slow-job dump missing timeline content: %q", tl)
			}
			if rec["job"] != "tortoise" {
				t.Errorf("slow-job line names job %v", rec["job"])
			}
		case "request":
			if rec["path"] == "/jobs" {
				access = true
			}
		case "job accepted":
			accepted = true
		}
	}
	if !slow || !access || !accepted {
		t.Errorf("log coverage: slow=%t access=%t accepted=%t\n%s", slow, access, accepted, out)
	}
	if got := counterValue(s, "earthd_slow_jobs_total"); got != 1 {
		t.Errorf("earthd_slow_jobs_total = %d, want 1", got)
	}
}

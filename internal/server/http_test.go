package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeResult(t *testing.T, resp *http.Response) *JobResult {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var r JobResult
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return &r
}

func TestHTTPJobRoundTrip(t *testing.T) {
	s := New(Config{Shards: 2, QueueDepth: 8})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := decodeResult(t, postJSON(t, ts.URL+"/jobs",
		&JobRequest{Benchmark: "power", Quick: true, Nodes: 2}))
	if r.Benchmark != "power" || r.Output == "" || r.TimeNs <= 0 {
		t.Errorf("implausible result: %+v", r)
	}
	if r.QueueNs < 0 || r.CompileNs <= 0 || r.RunNs <= 0 {
		t.Errorf("latency breakdown missing: queue=%d compile=%d run=%d",
			r.QueueNs, r.CompileNs, r.RunNs)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := get("/jobs"); resp.StatusCode != 405 {
		t.Errorf("GET /jobs = %d, want 405", resp.StatusCode)
	}
	if resp := get("/nope"); resp.StatusCode != 404 {
		t.Errorf("GET /nope = %d, want 404", resp.StatusCode)
	}
	// The simulator's one observer is a job's trace; there is no per-shard
	// time series to serve.
	if resp := get("/series.json"); resp.StatusCode != 404 {
		t.Errorf("GET /series.json = %d, want 404", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad body = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/jobs", &JobRequest{Benchmark: "nbody"})
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown benchmark = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/jobs", &JobRequest{Source: "int main( {"})
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Errorf("uncompilable = %d, want 422", resp.StatusCode)
	}
}

// TestHTTPUnknownFieldsRejected: schema v1 rejects fields it does not know
// with a 400 instead of silently dropping them.
func TestHTTPUnknownFieldsRejected(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"v":1,"benchmark":"power","turbo":true}`); code != 400 {
		t.Errorf("unknown field on /jobs = %d, want 400", code)
	}
	if code := post(`{"v":2,"benchmark":"power"}`); code != 400 {
		t.Errorf("future schema version = %d, want 400", code)
	}
}

func TestHTTPDrainingReturns503(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drainServer(t, s)

	resp := postJSON(t, ts.URL+"/jobs", &JobRequest{Source: remoteListSrc})
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("error body: %q, %v", e.Error, err)
	}
}

func TestHTTPBackpressureRetryAfter(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker, then fill the one queue slot.
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
	queued, jerr := s.Submit(&JobRequest{Source: slowListSrc + "\n", Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}

	resp := postJSON(t, ts.URL+"/jobs", &JobRequest{Source: remoteListSrc})
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	<-busy.Res
	<-queued.Res
}

// TestConcurrentScrapesDuringRuns: /metrics, /metrics.json and /healthz are
// scraped concurrently while traced jobs are in flight on all four shards.
// Run under -race (scripts/check.sh does) this exercises scrape-vs-run
// synchronization on the shared registry and the shard recorders.
func TestConcurrentScrapesDuringRuns(t *testing.T) {
	const shards = 4
	s := New(Config{Shards: shards, QueueDepth: 32})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct slow sources (distinct hashes, no cache hits) so each worker
	// takes one and every shard has a run in flight, with tracing on to
	// exercise the recorders too.
	outs := make([]<-chan jobOutcome, 0, shards)
	for i := 0; i < shards; i++ {
		src := slowListSrc + strings.Repeat("\n", i)
		sub, jerr := s.Submit(&JobRequest{Source: src, Nodes: 2, TraceSummary: true})
		if jerr != nil {
			t.Fatalf("submit %d: %v", i, jerr)
		}
		outs = append(outs, sub.Res)
	}

	paths := []string{"/metrics", "/metrics.json", "/healthz"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
					// Scrape continuously but don't starve the simulator
					// runs of CPU — the point is overlap, not throughput.
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s read: %v", path, err)
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if strings.HasSuffix(path, ".json") || path == "/healthz" {
					if !json.Valid(body) {
						errs <- fmt.Errorf("%s: invalid JSON", path)
						return
					}
				}
			}
		}(path)
	}

	for i, ch := range outs {
		select {
		case out := <-ch:
			if out.err != nil {
				t.Errorf("job %d: %v", i, out.err)
			}
		// A hang guard, not a speed limit: under -race on two cores the four
		// traced runs take 50 s with the host to themselves, and
		// `go test -race ./...` gives them half of it.
		case <-time.After(5 * time.Minute):
			t.Fatal("jobs never finished under scrape load")
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the one registry must account for every run.
	if got := s.Scrape().Counter("earth_runs_completed_total", "").Value(); got != shards {
		t.Errorf("earth_runs_completed_total = %d, want %d", got, shards)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{Shards: 3, QueueDepth: 8})
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
		Status    string `json:"status"`
		Draining  bool   `json:"draining"`
		QueueCap  int    `json:"queue_cap"`
		Accepted  int64  `json:"accepted"`
		Completed int64  `json:"completed"`
		Shards    []struct {
			Shard int   `json:"shard"`
			Jobs  int64 `json:"jobs"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining || h.QueueCap != 8 {
		t.Errorf("health = %+v", h)
	}
	if h.Accepted != 1 || h.Completed != 1 || len(h.Shards) != 3 {
		t.Errorf("health counters = %+v", h)
	}
	var total int64
	for _, sh := range h.Shards {
		total += sh.Jobs
	}
	if total != 1 {
		t.Errorf("shard job counts sum to %d, want 1", total)
	}
}

func TestIndexPage(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"/jobs", "/metrics", "/healthz"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index missing %q", want)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// remoteListSrc allocates a list on node 1 and walks it from node 0 — a
// small program with genuinely remote traffic that simulates in a few
// milliseconds.
const remoteListSrc = `
struct Point {
	double x;
	double y;
	double z;
	struct Point *next;
};

int main() {
	Point *head;
	Point *p;
	int i;
	double sum;
	head = NULL;
	for (i = 0; i < 30; i++) {
		p = alloc_on(Point, 1);
		p->x = dbl(i);
		p->y = dbl(i * 2);
		p->z = dbl(i * 3);
		p->next = head;
		head = p;
	}
	sum = 0.0;
	p = head;
	while (p != NULL) {
		sum = sum + p->x + p->y + p->z;
		p = p->next;
	}
	print_double(sum);
	return trunc(sum);
}
`

// slowListSrc is remoteListSrc with the walk repeated enough to keep one
// shard busy for >100ms of host time — comfortably wider than the
// goroutine-scheduling or loopback-HTTP latency several tests below lean
// on, but not so long that the race detector (which slows the simulator
// ~20x) pushes the suite past its deadline.
const slowListSrc = `
struct Point {
	double x;
	double y;
	double z;
	struct Point *next;
};

int main() {
	Point *head;
	Point *p;
	int i;
	int r;
	double sum;
	head = NULL;
	for (i = 0; i < 40; i++) {
		p = alloc_on(Point, 1);
		p->x = dbl(i);
		p->y = dbl(i * 2);
		p->z = dbl(i * 3);
		p->next = head;
		head = p;
	}
	sum = 0.0;
	for (r = 0; r < 2500; r++) {
		p = head;
		while (p != NULL) {
			sum = sum + p->x + p->y + p->z;
			p = p->next;
		}
	}
	print_double(sum);
	return 0;
}
`

// drainServer shuts s down, failing the test on a dirty drain.
func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// counterValue reads one counter from the merged scrape registry.
func counterValue(s *Server, name string) int64 {
	return s.MergedRegistry().Counter(name, "").Value()
}

// submitWait submits req and waits for its outcome.
func submitWait(t *testing.T, s *Server, req *JobRequest) (*JobResult, *jobError) {
	t.Helper()
	sub, jerr := s.Submit(req)
	if jerr != nil {
		return nil, jerr
	}
	select {
	case out := <-sub.Res:
		return out.result, out.err
	case <-time.After(60 * time.Second):
		t.Fatal("job outcome never arrived")
		return nil, nil
	}
}

// canonical strips the per-submission bookkeeping and host-latency fields
// so two results can be compared for deterministic-payload equality.
func canonical(t *testing.T, r *JobResult) string {
	t.Helper()
	b, err := r.CanonicalPayload()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentIdenticalColdSubmissions: N identical submissions racing
// into a cold server share nothing but the unit cache. Each shard may miss
// once before the first store lands, so at most Shards compiles happen;
// every payload is byte-identical, and every job's timeline says what its
// compile span was spent on — a real compile's phases or a cache lookup.
func TestConcurrentIdenticalColdSubmissions(t *testing.T) {
	cfg := obsConfig(4, 64)
	s := New(cfg)
	defer drainServer(t, s)

	const n = 12
	results := make([]*JobResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, jerr := submitWait(t, s, &JobRequest{Source: slowListSrc, Nodes: 4})
			if jerr != nil {
				t.Errorf("job %d: %v", i, jerr)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	misses := counterValue(s, "earth_cache_misses_total")
	if misses < 1 || misses > int64(cfg.Shards) {
		t.Errorf("earth_cache_misses_total = %d, want 1..%d (one per shard at most)", misses, cfg.Shards)
	}
	if got := counterValue(s, "earth_compiles_total"); got != misses {
		t.Errorf("earth_compiles_total = %d, want %d (one compile per miss)", got, misses)
	}
	if got := counterValue(s, "earth_cache_hits_total"); got != n-misses {
		t.Errorf("earth_cache_hits_total = %d, want %d", got, n-misses)
	}
	want := canonical(t, results[0])
	for i, r := range results {
		if r.Batched {
			t.Errorf("job %d marked batched; nothing batches", i)
		}
		if got := canonical(t, r); got != want {
			t.Errorf("job %d payload differs:\n got %s\nwant %s", i, got, want)
		}
		if !strings.HasPrefix(r.SourceHash, "sha256:") {
			t.Errorf("job %d: bad source hash %q", i, r.SourceHash)
		}
		tr := s.obs.Lookup(r.JobID)
		if tr == nil {
			t.Errorf("job %d (%s): no timeline retained", i, r.JobID)
			continue
		}
		c, ok := topSpans(tr.Snapshot())[obs.KindCompile]
		if !ok || len(c.Children) == 0 {
			t.Errorf("job %d (%s): compile span has no children: %+v", i, r.JobID, c)
		}
	}
}

// TestBypassJobsEachCompile: "cache":"bypass" promises a cold compile, so
// four identical bypass jobs queued behind one another on a single shard —
// all submitted while the first is still running — perform four compiles.
func TestBypassJobsEachCompile(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	defer drainServer(t, s)

	const n = 4
	var subs []*Submission
	for i := 0; i < n; i++ {
		sub, jerr := s.Submit(&JobRequest{Source: slowListSrc, Nodes: 2, Cache: "bypass"})
		if jerr != nil {
			t.Fatalf("submit %d: %v", i, jerr)
		}
		subs = append(subs, sub)
	}
	if s.completed.Load() != 0 {
		t.Fatal("the first job finished before the last was submitted; the test needs a slower program")
	}
	for i, sub := range subs {
		if out := <-sub.Res; out.err != nil {
			t.Fatalf("job %d: %v", i, out.err)
		}
	}
	if got := counterValue(s, "earth_compiles_total"); got != n {
		t.Errorf("earth_compiles_total = %d after %d bypass jobs, want %d", got, n, n)
	}
	if got := counterValue(s, "earth_cache_misses_total") + counterValue(s, "earth_cache_hits_total"); got != 0 {
		t.Errorf("bypass jobs consulted the cache %d times, want 0", got)
	}
}

// TestDistinctSourcesCompileSeparately: the unit-cache key includes the
// source hash and the compile options, so distinct programs — or the same
// program at different optimization settings — never share a unit.
func TestDistinctSourcesCompileSeparately(t *testing.T) {
	s := New(Config{Shards: 2, QueueDepth: 16})
	defer drainServer(t, s)

	off := false
	var wg sync.WaitGroup
	for _, req := range []*JobRequest{
		{Source: remoteListSrc, Nodes: 2},
		{Source: remoteListSrc, Nodes: 2, Optimize: &off},
		{Source: remoteListSrc + "\n", Nodes: 2}, // distinct hash
	} {
		wg.Add(1)
		go func(req *JobRequest) {
			defer wg.Done()
			if _, jerr := submitWait(t, s, req); jerr != nil {
				t.Errorf("submit: %v", jerr)
			}
		}(req)
	}
	wg.Wait()
	if got := counterValue(s, "earth_compiles_total"); got != 3 {
		t.Errorf("earth_compiles_total = %d, want 3 distinct compiles", got)
	}
}

// TestDrainLosesNoAcceptedJob: every job accepted before Drain produces an
// outcome, and submissions after Drain are refused with 503.
func TestDrainLosesNoAcceptedJob(t *testing.T) {
	s := New(Config{Shards: 4, QueueDepth: 64})

	const n = 16
	type res struct {
		i   int
		out jobOutcome
	}
	outs := make(chan res, n)
	for i := 0; i < n; i++ {
		// Mix sources so fast and slow jobs interleave on all shards.
		src := remoteListSrc
		if i%3 == 0 {
			src = slowListSrc
		}
		sub, jerr := s.Submit(&JobRequest{Source: src, Nodes: 2})
		if jerr != nil {
			t.Fatalf("submit %d refused: %v", i, jerr)
		}
		go func(i int, ch <-chan jobOutcome) { outs <- res{i, <-ch} }(i, sub.Res)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	if _, jerr := s.Submit(&JobRequest{Source: remoteListSrc}); jerr == nil || jerr.status != 503 {
		t.Errorf("post-drain submit: got %v, want 503", jerr)
	}

	for i := 0; i < n; i++ {
		select {
		case r := <-outs:
			if r.out.err != nil {
				t.Errorf("job %d failed: %v", r.i, r.out.err)
			} else if r.out.result.Output == "" {
				t.Errorf("job %d: empty output", r.i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d accepted jobs produced outcomes after drain", i, n)
		}
	}
	if acc, comp := s.accepted.Load(), s.completed.Load(); acc != n || comp != n {
		t.Errorf("accepted=%d completed=%d, want %d/%d", acc, comp, n, n)
	}
}

// TestValidationErrors: malformed requests are refused before queueing.
func TestValidationErrors(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)

	cases := []struct {
		name string
		req  *JobRequest
		want int
	}{
		{"empty", &JobRequest{}, 400},
		{"both", &JobRequest{Source: "int main() { return 0; }", Benchmark: "power"}, 400},
		{"unknown-benchmark", &JobRequest{Benchmark: "nbody"}, 400},
		{"bad-cost", &JobRequest{Source: "int main() { return 0; }", Cost: "NetLatency=purple"}, 400},
		{"bad-faults", &JobRequest{Source: "int main() { return 0; }", Faults: "drop=2.5"}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, jerr := s.Submit(tc.req); jerr == nil || jerr.status != tc.want {
				t.Errorf("got %v, want status %d", jerr, tc.want)
			}
		})
	}

	// A well-formed but uncompilable program is accepted, then fails 422.
	if _, jerr := submitWait(t, s, &JobRequest{Source: "int main( {"}); jerr == nil || jerr.status != 422 {
		t.Errorf("compile error: got %v, want 422", jerr)
	}
	// A runnable failure (sequential on >1 node) also maps to 422.
	if _, jerr := submitWait(t, s, &JobRequest{Source: "int main() { return 0; }", Sequential: true, Nodes: 2}); jerr == nil || jerr.status != 422 {
		t.Errorf("run error: got %v, want 422", jerr)
	}
}

// TestBenchmarkJob: named Olden jobs expand server-side, so every client
// naming the same benchmark shares one unit-cache entry.
func TestBenchmarkJob(t *testing.T) {
	s := New(Config{Shards: 2, QueueDepth: 8})
	defer drainServer(t, s)

	r, jerr := submitWait(t, s, &JobRequest{Benchmark: "power", Quick: true, Nodes: 2})
	if jerr != nil {
		t.Fatalf("power: %v", jerr)
	}
	if r.Benchmark != "power" || r.Name != "power.ec" {
		t.Errorf("result identity = %q/%q", r.Benchmark, r.Name)
	}
	if r.TimeNs <= 0 || r.Output == "" {
		t.Errorf("implausible result: time=%d output=%q", r.TimeNs, r.Output)
	}
	if !r.Optimized {
		t.Error("default job should be optimized")
	}
}

// TestTraceSummaryPerJob: a traced job returns the text summary and the
// compact digest, and tracing one job does not leak into the next.
func TestTraceSummaryPerJob(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	defer drainServer(t, s)

	r, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 4, TraceSummary: true})
	if jerr != nil {
		t.Fatalf("traced job: %v", jerr)
	}
	if !strings.Contains(r.TraceSummary, "trace summary:") {
		t.Errorf("missing text summary: %q", r.TraceSummary)
	}
	if r.Trace == nil || r.Trace.Msgs == 0 || r.Trace.Nodes != 4 {
		t.Errorf("implausible trace digest: %+v", r.Trace)
	}
	if r.Trace.LatencyP95Ns < r.Trace.LatencyP50Ns {
		t.Errorf("p95 %d < p50 %d", r.Trace.LatencyP95Ns, r.Trace.LatencyP50Ns)
	}

	// The next untraced job on the same shard must carry no trace fields.
	r2, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 4})
	if jerr != nil {
		t.Fatalf("untraced job: %v", jerr)
	}
	if r2.TraceSummary != "" || r2.Trace != nil {
		t.Error("untraced job leaked trace data")
	}
}

// TestTracedPayloadIgnoresShardHistory: the shard reuses one recorder, so a
// traced 2-node job must answer the same bytes whether or not an 8-node job
// ran on the shard in between — identical requests, identical canonical
// payloads.
func TestTracedPayloadIgnoresShardHistory(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	defer drainServer(t, s)

	var payloads []string
	for _, nodes := range []int{2, 8, 2} {
		r, jerr := submitWait(t, s, &JobRequest{Benchmark: "power", Quick: true, Nodes: nodes, TraceSummary: true})
		if jerr != nil {
			t.Fatalf("%d-node job: %v", nodes, jerr)
		}
		if r.Trace == nil || r.Trace.Nodes != nodes {
			t.Errorf("%d-node job: trace digest reports %+v", nodes, r.Trace)
		}
		payloads = append(payloads, canonical(t, r))
	}
	if payloads[0] != payloads[2] {
		t.Errorf("the same request answered %d then %d canonical bytes:\n--- first ---\n%s\n--- third ---\n%s",
			len(payloads[0]), len(payloads[2]), payloads[0], payloads[2])
	}
}

// TestFaultedJobDeterminism: the same faulted request twice produces
// identical deterministic payloads, and the fault stats surface.
func TestFaultedJobDeterminism(t *testing.T) {
	s := New(Config{Shards: 2, QueueDepth: 8})
	defer drainServer(t, s)

	req := func() *JobRequest {
		return &JobRequest{Source: remoteListSrc, Nodes: 4,
			Faults: "drop=0.05,dup=0.02,delay=2", FaultSeed: 7}
	}
	a, jerr := submitWait(t, s, req())
	if jerr != nil {
		t.Fatalf("faulted job: %v", jerr)
	}
	b, jerr := submitWait(t, s, req())
	if jerr != nil {
		t.Fatalf("faulted job: %v", jerr)
	}
	if a.Faults == nil || a.Faults.Drops == 0 {
		t.Errorf("no faults recorded: %+v", a.Faults)
	}
	if ca, cb := canonical(t, a), canonical(t, b); ca != cb {
		t.Errorf("faulted payloads differ:\n%s\n%s", ca, cb)
	}
}

// TestMergedMetrics: the scrape aggregates service counters, per-shard
// pipeline registries, and process metrics into one exposition.
func TestMergedMetrics(t *testing.T) {
	s := New(Config{Shards: 3, QueueDepth: 16})
	defer drainServer(t, s)

	const n = 9
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct sources so every job compiles and runs.
			src := remoteListSrc + strings.Repeat("\n", i)
			if _, jerr := submitWait(t, s, &JobRequest{Source: src, Nodes: 2}); jerr != nil {
				t.Errorf("job %d: %v", i, jerr)
			}
		}(i)
	}
	wg.Wait()

	m := s.MergedRegistry()
	if got := m.Counter("earth_runs_completed_total", "").Value(); got != n {
		t.Errorf("aggregated earth_runs_completed_total = %d, want %d (summed across shards)", got, n)
	}
	if got := m.Counter("earthd_jobs_completed_total", "").Value(); got != n {
		t.Errorf("earthd_jobs_completed_total = %d, want %d", got, n)
	}
	if got := m.Gauge("process_goroutines", "").Value(); got <= 0 {
		t.Errorf("process_goroutines = %d, want > 0", got)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"earth_compiles_total", "earthd_queue_wait_ns", "earth_compile_ns",
		"process_heap_alloc_bytes", "process_gc_cycles_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("merged exposition missing %q", want)
		}
	}
}

// TestFuelCapApplies: the service-level instruction cap bounds jobs that
// ask for no limit, so a runaway program cannot pin a shard.
func TestFuelCapApplies(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4, MaxFuel: 10_000})
	defer drainServer(t, s)

	_, jerr := submitWait(t, s, &JobRequest{Source: slowListSrc, Nodes: 2})
	if jerr == nil || jerr.status != 422 || !strings.Contains(jerr.msg, "fuel") {
		t.Errorf("got %v, want 422 fuel exhaustion", jerr)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Shards < 1 || cfg.Shards > 8 {
		t.Errorf("default shards = %d", cfg.Shards)
	}
	if cfg.QueueDepth != 64 || cfg.DefaultNodes != 4 || cfg.MaxFuel != 500_000_000 {
		t.Errorf("defaults = %+v", cfg)
	}
	neg := Config{MaxFuel: -1}.withDefaults()
	if neg.MaxFuel != -1 {
		t.Errorf("negative MaxFuel (unlimited) not preserved: %d", neg.MaxFuel)
	}
}

// TestBackpressure429: with one busy shard and a one-deep queue, the third
// concurrent submission is refused with 429 until capacity frees up.
func TestBackpressure429(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 1})
	defer drainServer(t, s)

	// Occupy the worker with a slow job, then fill the queue.
	busy, jerr := s.Submit(&JobRequest{Source: slowListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatalf("busy job refused: %v", jerr)
	}
	// Wait until the worker has dequeued the busy job so the queue slot is
	// genuinely free for the filler.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the busy job")
		}
		time.Sleep(time.Millisecond)
	}
	queued, jerr := s.Submit(&JobRequest{Source: slowListSrc + "\n", Nodes: 2})
	if jerr != nil {
		t.Fatalf("queued job refused: %v", jerr)
	}
	if _, jerr := s.Submit(&JobRequest{Source: slowListSrc + "\n\n", Nodes: 2}); jerr == nil || jerr.status != 429 {
		t.Fatalf("overflow submit: got %v, want 429", jerr)
	}
	if got := counterValue(s, `earthd_jobs_rejected_total{reason="queue_full"}`); got != 1 {
		t.Errorf("queue_full rejections = %d, want 1", got)
	}
	for _, sub := range []*Submission{busy, queued} {
		if out := <-sub.Res; out.err != nil {
			t.Errorf("accepted job failed: %v", out.err)
		}
	}
}

// TestSchemaVersion: v0 (absent) and v1 jobs are accepted; anything newer
// is a 400 so an old server never silently misreads a newer client.
func TestSchemaVersion(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)

	if _, jerr := submitWait(t, s, &JobRequest{V: 1, Source: remoteListSrc, Nodes: 2}); jerr != nil {
		t.Errorf("v1 job rejected: %v", jerr)
	}
	for _, v := range []int{2, 99, -1} {
		if _, jerr := s.Submit(&JobRequest{V: v, Source: remoteListSrc}); jerr == nil || jerr.status != 400 {
			t.Errorf("v=%d: got %v, want 400", v, jerr)
		}
	}
}

// TestCachePolicyValidation: the cache policy field accepts exactly "",
// "bypass", and "no-store".
func TestCachePolicyValidation(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)

	for _, ok := range []string{"", "bypass", "no-store"} {
		if _, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 2, Cache: ok}); jerr != nil {
			t.Errorf("cache=%q rejected: %v", ok, jerr)
		}
	}
	if _, jerr := s.Submit(&JobRequest{Source: remoteListSrc, Cache: "aggressive"}); jerr == nil || jerr.status != 400 {
		t.Errorf("bad cache policy: got %v, want 400", jerr)
	}
}

// TestRepeatedDuplicatesHitCache: sequential identical submissions must
// compile once and serve the repeats from the shared unit cache — the
// counters in the merged scrape prove it.
func TestRepeatedDuplicatesHitCache(t *testing.T) {
	s := New(Config{Shards: 2, QueueDepth: 8})
	defer drainServer(t, s)

	const n = 4
	results := make([]*JobResult, n)
	for i := 0; i < n; i++ {
		r, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 4})
		if jerr != nil {
			t.Fatalf("job %d: %v", i, jerr)
		}
		results[i] = r
	}
	if got := counterValue(s, "earth_compiles_total"); got != 1 {
		t.Errorf("earth_compiles_total = %d after %d identical jobs, want 1", got, n)
	}
	if got := counterValue(s, "earth_cache_hits_total"); got != n-1 {
		t.Errorf("earth_cache_hits_total = %d, want %d", got, n-1)
	}
	if got := counterValue(s, "earth_cache_misses_total"); got != 1 {
		t.Errorf("earth_cache_misses_total = %d, want 1", got)
	}
	for i := 1; i < n; i++ {
		if a, b := canonical(t, results[0]), canonical(t, results[i]); a != b {
			t.Errorf("cached job %d payload differs:\n%s\nvs\n%s", i, a, b)
		}
	}

	// A bypass job against the warm cache compiles cold.
	if _, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 4, Cache: "bypass"}); jerr != nil {
		t.Fatal(jerr)
	}
	if got := counterValue(s, "earth_compiles_total"); got != 2 {
		t.Errorf("earth_compiles_total = %d after bypass job, want 2", got)
	}
}

// TestCacheDisabled: CacheSize < 0 turns the shared cache off; every
// sequential duplicate compiles.
func TestCacheDisabled(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4, CacheSize: -1})
	defer drainServer(t, s)

	for i := 0; i < 2; i++ {
		if _, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 2}); jerr != nil {
			t.Fatal(jerr)
		}
	}
	if got := counterValue(s, "earth_compiles_total"); got != 2 {
		t.Errorf("earth_compiles_total = %d with caching disabled, want 2", got)
	}
}

func TestResolveDefaults(t *testing.T) {
	name, quickSrc, jerr := resolve(&JobRequest{Benchmark: "tsp", Quick: true})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if name != "tsp.ec" || !strings.Contains(quickSrc, "main") {
		t.Errorf("resolve(tsp) = %q, %d bytes", name, len(quickSrc))
	}
	_, fullSrc, jerr := resolve(&JobRequest{Benchmark: "tsp"})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if fullSrc == quickSrc {
		t.Error("quick and full tsp sources should differ")
	}
	if _, src2, _ := resolve(&JobRequest{Benchmark: "tsp", Quick: true}); src2 != quickSrc {
		t.Error("resolve not deterministic")
	}
	if _, _, jerr := resolve(&JobRequest{Benchmark: "power", Name: "my.ec"}); jerr != nil {
		t.Errorf("custom name: %v", jerr)
	}
}

func TestJobErrorFormat(t *testing.T) {
	e := errf(429, "queue full (%d jobs deep); retry later", 64)
	if e.status != 429 || !strings.Contains(e.Error(), "64") {
		t.Errorf("errf = %+v", e)
	}
	if fmt.Sprintf("%v", e) != e.msg {
		t.Error("jobError should print its message")
	}
}

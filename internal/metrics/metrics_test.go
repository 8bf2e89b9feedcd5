package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilSinksAreNoOps(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("x", "")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("x_ns", "")
	h.Observe(7)
	if s := h.Snapshot(); s.N != 0 {
		t.Fatalf("nil histogram N = %d", s.N)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry prometheus: err=%v len=%d", err, buf.Len())
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil || buf.String() != "{}\n" {
		t.Fatalf("nil registry json: err=%v %q", err, buf.String())
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("ops_total", "other help") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("depth", "")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency")
	for _, v := range []int64{0, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.N != 6 { // -5 dropped
		t.Fatalf("N = %d, want 6", s.N)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	// trace.Hist scheme: bucket 0 holds {0,1}, bucket 1 {2,3}, bucket 2 {4..7},
	// bucket 6 {64..127}.
	if s.Buckets[0] != 2 || s.Buckets[1] != 2 || s.Buckets[2] != 1 || s.Buckets[6] != 1 {
		t.Fatalf("buckets = %v", s.Buckets[:8])
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first").Add(1)
	r.Gauge("depth", "queue depth").Set(3)
	h := r.Histogram("lat_ns", "latency")
	h.Observe(1)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total first
# TYPE a_total counter
a_total 1
# HELP b_total second
# TYPE b_total counter
b_total 2
# HELP depth queue depth
# TYPE depth gauge
depth 3
# HELP lat_ns latency
# TYPE lat_ns histogram
lat_ns_bucket{le="1"} 1
lat_ns_bucket{le="3"} 1
lat_ns_bucket{le="7"} 2
lat_ns_bucket{le="+Inf"} 2
lat_ns_sum 6
lat_ns_count 2
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelledExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`phase_runs_total{phase="sema"}`, "runs per phase").Add(2)
	r.Counter(`phase_runs_total{phase="parse"}`, "runs per phase").Add(3)
	h := r.Histogram(`phase_ns{phase="sema"}`, "time per phase")
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	// One HELP/TYPE pair per base name even with two labelled series.
	if n := strings.Count(got, "# TYPE phase_runs_total counter"); n != 1 {
		t.Fatalf("TYPE lines for phase_runs_total = %d\n%s", n, got)
	}
	for _, line := range []string{
		`phase_runs_total{phase="parse"} 3`,
		`phase_runs_total{phase="sema"} 2`,
		`phase_ns_bucket{phase="sema",le="3"} 1`,
		`phase_ns_bucket{phase="sema",le="+Inf"} 1`,
		`phase_ns_sum{phase="sema"} 2`,
		`phase_ns_count{phase="sema"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("missing line %q in:\n%s", line, got)
		}
	}
}

func TestExpositionDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z_total", "z").Add(9)
		r.Counter("a_total", "a").Add(1)
		r.Gauge("g", "g").Set(-4)
		h := r.Histogram("h_ns", "h")
		for i := int64(0); i < 100; i++ {
			h.Observe(i * i)
		}
		return r
	}
	expo := func(r *Registry) string {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := expo(build()), expo(build())
	if a != b {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"name":"a_total","value":1`) {
		t.Fatalf("json exposition missing counter:\n%s", a)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total", "").Inc()
				r.Gauge(fmt.Sprintf("g_%d", i), "").Set(int64(j))
				r.Histogram("h_ns", "").Observe(int64(j))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if v := r.Counter("shared_total", "").Value(); v != 8000 {
		t.Fatalf("shared counter = %d, want 8000", v)
	}
	if s := r.Histogram("h_ns", "").Snapshot(); s.N != 8000 {
		t.Fatalf("histogram N = %d, want 8000", s.N)
	}
}

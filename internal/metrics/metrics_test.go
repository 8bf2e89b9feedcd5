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

	var s *Sampler
	s.Record(SimSample{Time: 1})
	if s.Series() != nil || s.Total() != 0 || s.Interval() != 0 {
		t.Fatal("nil sampler not inert")
	}
	s.Reset()
	buf.Reset()
	if err := s.WriteSeriesJSON(&buf); err != nil || buf.String() != "{}\n" {
		t.Fatalf("nil sampler json: err=%v %q", err, buf.String())
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
		s := NewSampler(0, 0)
		for i := int64(1); i <= 3; i++ {
			s.Record(SimSample{
				Time:  i * DefaultInterval,
				Nodes: []NodeSample{{EUBusyNs: i * 10}},
				Links: []LinkSample{{Src: 0, Dst: 1, Msgs: i}},
			})
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

func TestSamplerRing(t *testing.T) {
	s := NewSampler(10, 4)
	if s.Interval() != 10 {
		t.Fatalf("interval = %d", s.Interval())
	}
	for i := int64(1); i <= 6; i++ {
		s.Record(SimSample{Time: i})
	}
	if s.Total() != 6 {
		t.Fatalf("total = %d, want 6", s.Total())
	}
	series := s.Series()
	if len(series) != 4 {
		t.Fatalf("len(series) = %d, want 4", len(series))
	}
	for i, sm := range series {
		if want := int64(i + 3); sm.Time != want { // oldest two evicted
			t.Fatalf("series[%d].Time = %d, want %d", i, sm.Time, want)
		}
	}
	s.Reset()
	if len(s.Series()) != 0 || s.Total() != 0 {
		t.Fatal("reset did not clear sampler")
	}
	s.Record(SimSample{Time: 42})
	if got := s.Series(); len(got) != 1 || got[0].Time != 42 {
		t.Fatalf("sampler unusable after reset: %+v", got)
	}
}

func TestSamplerSeriesJSON(t *testing.T) {
	s := NewSampler(100, 8)
	s.Record(SimSample{
		Time:         100,
		Instructions: 50,
		Nodes:        []NodeSample{{EUBusyNs: 90, SUQueue: 2}},
		Links:        []LinkSample{{Src: 1, Dst: 0, Msgs: 3, Words: 12}},
	})
	var buf bytes.Buffer
	if err := s.WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, frag := range []string{
		`"interval_ns":100`, `"total":1`, `"time":100`, `"instructions":50`,
		`"eu_busy_ns":90`, `"su_queue":2`, `"src":1`, `"words":12`,
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("series json missing %q:\n%s", frag, got)
		}
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

// TestSamplerConcurrentObservation: Series and Total read from another
// goroutine while Record runs see whole samples, oldest first, and never
// more retained than recorded — what earthd's /series.json relies on.
func TestSamplerConcurrentObservation(t *testing.T) {
	s := NewSampler(1, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 5000; i++ {
			s.Record(SimSample{Time: i, Nodes: []NodeSample{{EUBusyNs: i}}})
		}
	}()
	check := func() []SimSample {
		before := s.Total()
		series := s.Series()
		if int64(len(series)) > s.Total() || len(series) > 16 {
			t.Fatalf("%d samples retained, %d recorded", len(series), s.Total())
		}
		for i, sm := range series {
			if sm.Nodes[0].EUBusyNs != sm.Time {
				t.Fatalf("torn sample: %+v", sm)
			}
			if i > 0 && sm.Time != series[i-1].Time+1 {
				t.Fatalf("series out of order at %d: %d after %d", i, sm.Time, series[i-1].Time)
			}
		}
		if n := len(series); n > 0 && series[n-1].Time < before {
			t.Fatalf("series ends at %d, but %d samples were recorded before it was read", series[n-1].Time, before)
		}
		return series
	}
	for {
		select {
		case <-done:
			if series := check(); s.Total() != 5000 || len(series) != 16 || series[15].Time != 5000 {
				t.Fatalf("after writer done: total %d, series %+v", s.Total(), series)
			}
			return
		default:
			check()
		}
	}
}

package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestMergeSumsAndPools(t *testing.T) {
	a := NewRegistry()
	a.Counter("jobs_total", "Jobs.").Add(3)
	a.Gauge("depth", "Depth.").Set(2)
	a.Histogram("wait_ns", "Wait.").Observe(100)
	a.Histogram("wait_ns", "Wait.").Observe(200)

	b := NewRegistry()
	b.Counter("jobs_total", "ignored help").Add(4)
	b.Counter("only_b_total", "B only.").Add(1)
	b.Gauge("depth", "").Set(5)
	b.Histogram("wait_ns", "").Observe(1 << 20)

	m := Merge(a, nil, b)
	if got := m.Counter("jobs_total", "").Value(); got != 7 {
		t.Errorf("jobs_total = %d, want 7", got)
	}
	if got := m.Counter("only_b_total", "").Value(); got != 1 {
		t.Errorf("only_b_total = %d, want 1", got)
	}
	if got := m.Gauge("depth", "").Value(); got != 7 {
		t.Errorf("depth = %d, want 7 (gauges sum)", got)
	}
	h := m.Histogram("wait_ns", "").Snapshot()
	if h.N != 3 || h.Sum != 100+200+(1<<20) {
		t.Errorf("pooled hist N=%d Sum=%d", h.N, h.Sum)
	}
	if h.Min != 100 || h.Max != 1<<20 {
		t.Errorf("pooled hist Min=%d Max=%d", h.Min, h.Max)
	}

	// Help text comes from the first registry defining the name.
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP jobs_total Jobs.") {
		t.Errorf("merged help text wrong:\n%s", buf.String())
	}
}

func TestMergeDoesNotAliasSources(t *testing.T) {
	a := NewRegistry()
	a.Counter("c_total", "").Add(1)
	a.Histogram("h_ns", "").Observe(10)
	m := Merge(a)
	m.Counter("c_total", "").Add(100)
	m.Histogram("h_ns", "").Observe(999)
	if got := a.Counter("c_total", "").Value(); got != 1 {
		t.Errorf("source counter mutated through merge: %d", got)
	}
	if s := a.Histogram("h_ns", "").Snapshot(); s.N != 1 {
		t.Errorf("source hist mutated through merge: N=%d", s.N)
	}
}

func TestMergeDeterministicExposition(t *testing.T) {
	build := func() *Registry {
		a := NewRegistry()
		a.Counter("z_total", "Z.").Add(2)
		a.Gauge("a_gauge", "A.").Set(1)
		b := NewRegistry()
		b.Counter("m_total", "M.").Add(5)
		b.Histogram("h_ns", "H.").Observe(42)
		return Merge(a, b)
	}
	var x, y bytes.Buffer
	if err := build().WritePrometheus(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("merged exposition not byte-deterministic:\n%s\n---\n%s", x.String(), y.String())
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m = Merge(nil, nil)
	if m == nil {
		t.Fatal("Merge(nil, nil) returned nil")
	}
}

func TestProcessCollector(t *testing.T) {
	c := NewProcessCollector()
	c.Collect()
	if got := c.Registry().Gauge("process_goroutines", "").Value(); got <= 0 {
		t.Errorf("process_goroutines = %d, want > 0", got)
	}
	if got := c.Registry().Gauge("process_heap_alloc_bytes", "").Value(); got <= 0 {
		t.Errorf("process_heap_alloc_bytes = %d, want > 0", got)
	}

	// Counters advance by deltas: repeated collection must stay monotone,
	// never double-count the absolute runtime totals.
	first := c.Registry().Counter("process_mallocs_total", "").Value()
	c.Collect()
	second := c.Registry().Counter("process_mallocs_total", "").Value()
	if second < first {
		t.Errorf("process_mallocs_total went backwards: %d -> %d", first, second)
	}
	if first > 0 && second > 2*first {
		// A delta-collector re-adding absolute values would roughly double;
		// two collections microseconds apart must not.
		t.Errorf("process_mallocs_total looks double-counted: %d -> %d", first, second)
	}

	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"process_goroutines", "process_gc_cycles_total", "process_heap_objects"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestProcessCollectorNil(t *testing.T) {
	var c *ProcessCollector
	c.Collect() // must not panic
	if c.Registry() != nil {
		t.Error("nil collector should expose a nil registry")
	}
	// And a nil registry merges away silently.
	if m := Merge(c.Registry()); m == nil {
		t.Error("Merge(nil registry) returned nil")
	}
}

package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestProcessCollector(t *testing.T) {
	reg := NewRegistry()
	c := NewProcessCollector(reg)
	c.Collect()
	if got := reg.Gauge("process_goroutines", "").Value(); got <= 0 {
		t.Errorf("process_goroutines = %d, want > 0", got)
	}
	if got := reg.Gauge("process_heap_alloc_bytes", "").Value(); got <= 0 {
		t.Errorf("process_heap_alloc_bytes = %d, want > 0", got)
	}

	// Counters advance by deltas: repeated collection must stay monotone,
	// never double-count the absolute runtime totals.
	first := reg.Counter("process_mallocs_total", "").Value()
	c.Collect()
	second := reg.Counter("process_mallocs_total", "").Value()
	if second < first {
		t.Errorf("process_mallocs_total went backwards: %d -> %d", first, second)
	}
	if first > 0 && second > 2*first {
		// A delta-collector re-adding absolute values would roughly double;
		// two collections microseconds apart must not.
		t.Errorf("process_mallocs_total looks double-counted: %d -> %d", first, second)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
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
	// Nor does a collector writing into the nil (disabled) registry.
	NewProcessCollector(nil).Collect()
}

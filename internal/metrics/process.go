package metrics

import (
	"runtime"
	"sync"
)

// ProcessCollector snapshots Go runtime process state — goroutine count,
// heap usage, GC activity — into its own registry at scrape time. It is
// deliberately kept out of the pipeline registries: process state is
// host-dependent and changes between scrapes, while the pipeline registries
// carry the deterministic simulated quantities the telemetry determinism
// tests pin byte-for-byte. earthd folds the collector's registry into every
// /metrics scrape.
//
// A nil *ProcessCollector is a valid, disabled collector: Collect is a
// no-op, matching the registry/sampler nil contract.
type ProcessCollector struct {
	mu  sync.Mutex
	reg *Registry
	// Previous absolute runtime counters, so monotone registry counters can
	// advance by deltas across Collect calls.
	lastGC     uint32
	lastPause  uint64
	lastAllocs uint64
}

// NewProcessCollector returns an empty collector; call Collect before each
// exposition.
func NewProcessCollector() *ProcessCollector {
	return &ProcessCollector{reg: NewRegistry()}
}

// Collect refreshes the collector's registry from the runtime. Safe for
// concurrent scrapes. Nil-safe.
func (c *ProcessCollector) Collect() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Gauge("process_goroutines", "Live goroutines at scrape time.").
		Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.reg.Gauge("process_heap_alloc_bytes", "Bytes of allocated heap objects.").
		Set(int64(ms.HeapAlloc))
	c.reg.Gauge("process_heap_sys_bytes", "Heap memory obtained from the OS.").
		Set(int64(ms.HeapSys))
	c.reg.Gauge("process_heap_objects", "Live heap objects.").
		Set(int64(ms.HeapObjects))
	c.reg.Gauge("process_next_gc_bytes", "Heap size that triggers the next GC cycle.").
		Set(int64(ms.NextGC))
	c.reg.Counter("process_gc_cycles_total", "Completed GC cycles.").
		Add(int64(ms.NumGC - c.lastGC))
	c.lastGC = ms.NumGC
	c.reg.Counter("process_gc_pause_ns_total", "Cumulative GC stop-the-world pause time.").
		Add(int64(ms.PauseTotalNs - c.lastPause))
	c.lastPause = ms.PauseTotalNs
	c.reg.Counter("process_mallocs_total", "Heap objects allocated.").
		Add(int64(ms.Mallocs - c.lastAllocs))
	c.lastAllocs = ms.Mallocs
}

// Registry exposes the collector's backing registry (nil for a nil
// collector) so aggregators can fold process metrics into a merged scrape.
func (c *ProcessCollector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

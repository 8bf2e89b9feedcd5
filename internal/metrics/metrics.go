// Package metrics is the telemetry substrate of the pipeline: a
// zero-cost-when-disabled registry of counters, gauges and power-of-two
// histograms (reusing internal/trace's bucket scheme). What happens inside a
// simulated run is internal/trace's to record; this package aggregates across
// runs and compiles.
//
// Where the trace subsystem is a full event log reduced to a summary after
// the run, this package holds cheap aggregates: earthd's scrape endpoints
// read them while its shards run jobs, and CI can diff them across revisions.
//
// Two contracts carry over from the trace subsystem:
//
//   - Zero cost when disabled. A nil *Registry is a valid, disabled sink:
//     every method is nil-safe. The repo-root zero-cost test pins a run
//     without one to the simulator's allocation ledger.
//
//   - Determinism. Exposition is byte-deterministic in the recorded values:
//     names are emitted in sorted order with fixed integer formatting.
//
// Registry values are safe for concurrent use (counters and gauges are
// atomics; histograms take a small mutex), so one Registry can serve many
// concurrent pipelines, and an HTTP handler can expose it mid-run.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotone). Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set assigns the gauge. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a power-of-two histogram of non-negative int64 samples,
// sharing trace.Hist's bucket scheme (bucket i holds [2^i, 2^(i+1)); bucket
// 0 also holds 0). Unlike trace.Hist it is safe for concurrent Observe.
type Histogram struct {
	name string
	help string
	mu   sync.Mutex
	h    trace.Hist
}

// Observe records one sample (negative samples are dropped, matching
// trace.Hist.Add). Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram (zero value for nil).
func (h *Histogram) Snapshot() trace.Hist {
	if h == nil {
		return trace.Hist{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// Registry holds named metrics. Metric names follow the Prometheus
// convention and may carry a label set in curly braces — the full string
// (e.g. `earth_compile_phase_ns{phase="sema"}`) is the registry key, and
// exposition groups HELP/TYPE lines by the base name before the brace.
//
// A nil *Registry is a valid, disabled registry: lookups return nil metrics
// whose methods are all no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter. Returns nil
// on a nil registry, so call chains like r.Counter(...).Inc() are free when
// metrics are disabled. help is recorded on first registration only.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, help: help}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, help: help}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
// Nil-safe.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, help: help}
		r.hists[name] = h
	}
	return h
}

// Enabled reports whether the registry collects anything (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// sortedCounters returns the counters in name order (exposition helper).
func (r *Registry) sortedCounters() []*Counter {
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) sortedGauges() []*Gauge {
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) sortedHists() []*Histogram {
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Sampler records nothing: a simulated run's EU, SU and link activity is in
// its trace recording.
//
// Deprecated: ignored; kept only so existing callers still compile.
type Sampler struct{}

// NewSampler returns a Sampler, which records nothing.
//
// Deprecated: ignored.
func NewSampler(int64, int) *Sampler { return &Sampler{} }

// Reset does nothing.
//
// Deprecated: ignored.
func (*Sampler) Reset() {}

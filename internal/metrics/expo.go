package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/trace"
)

// Exposition. Both encoders are byte-deterministic in the recorded values —
// the same contract as the Chrome trace exporter: metric names are emitted
// in sorted order, integers with %d, and nothing derived from wall-clock
// time or map iteration order reaches the output. The telemetry determinism
// test in internal/earthsim compares these bytes across runs.

// baseName returns the metric name up to the label brace:
// `x{phase="sema"}` → `x`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel inserts an extra label into a possibly-labelled metric name and
// appends a suffix to its base: withLabel(`x{a="1"}`, "_bucket",
// `le="3"`) → `x_bucket{a="1",le="3"}`.
func withLabel(name, suffix, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + "{" + name[i+1:len(name)-1] + "," + label + "}"
	}
	return name + suffix + "{" + label + "}"
}

// header emits the # HELP / # TYPE preamble once per base name.
func header(w io.Writer, last *string, name, help, typ string) {
	base := baseName(name)
	if base == *last {
		return
	}
	*last = base
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", base, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
}

// writeHist emits one histogram in Prometheus cumulative-bucket form. The
// power-of-two edges come from trace.Hist: bucket i covers [2^i, 2^(i+1)),
// so its inclusive integer upper bound is 2^(i+1)-1. Buckets are emitted up
// to the highest non-empty one, then +Inf.
func writeHist(w io.Writer, name string, h trace.Hist) {
	hi := -1
	for i, c := range h.Buckets {
		if c > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += h.Buckets[i]
		edge := (int64(1) << uint(i+1)) - 1
		fmt.Fprintf(w, "%s %d\n", withLabel(name, "_bucket", fmt.Sprintf("le=\"%d\"", edge)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", withLabel(name, "_bucket", `le="+Inf"`), h.N)
	fmt.Fprintf(w, "%s %d\n", suffixed(name, "_sum"), h.Sum)
	fmt.Fprintf(w, "%s %d\n", suffixed(name, "_count"), h.N)
}

// suffixed appends a suffix to the base of a possibly-labelled name:
// suffixed(`x{a="1"}`, "_sum") → `x_sum{a="1"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters, then gauges, then histograms, each in
// name order. Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := r.sortedCounters()
	gauges := r.sortedGauges()
	hists := r.sortedHists()
	r.mu.Unlock()

	var last string
	for _, c := range counters {
		header(w, &last, c.name, c.help, "counter")
		if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		header(w, &last, g.name, g.help, "gauge")
		if _, err := fmt.Fprintf(w, "%s %d\n", g.name, g.Value()); err != nil {
			return err
		}
	}
	for _, h := range hists {
		header(w, &last, h.name, h.help, "histogram")
		writeHist(w, h.name, h.Snapshot())
	}
	return nil
}

// jsonMetric is one registry entry in the JSON exposition.
type jsonMetric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// jsonHist is one histogram in the JSON exposition, reduced to the summary
// statistics the trace subsystem reports.
type jsonHist struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	Mean  int64  `json:"mean"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

// WriteJSON writes the registry as a single JSON object with counters,
// gauges, and histograms in name order. Byte-deterministic: slice-of-struct
// encoding has a fixed key order. Nil-safe (writes `{}`).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	r.mu.Lock()
	counters := r.sortedCounters()
	gauges := r.sortedGauges()
	hists := r.sortedHists()
	r.mu.Unlock()

	out := struct {
		Counters   []jsonMetric `json:"counters"`
		Gauges     []jsonMetric `json:"gauges"`
		Histograms []jsonHist   `json:"histograms"`
	}{
		Counters:   make([]jsonMetric, 0, len(counters)),
		Gauges:     make([]jsonMetric, 0, len(gauges)),
		Histograms: make([]jsonHist, 0, len(hists)),
	}
	for _, c := range counters {
		out.Counters = append(out.Counters, jsonMetric{c.name, c.Value()})
	}
	for _, g := range gauges {
		out.Gauges = append(out.Gauges, jsonMetric{g.name, g.Value()})
	}
	for _, h := range hists {
		s := h.Snapshot()
		out.Histograms = append(out.Histograms, jsonHist{
			Name: h.name, Count: s.N, Sum: s.Sum, Min: s.Min, Max: s.Max,
			Mean: s.Mean(), P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

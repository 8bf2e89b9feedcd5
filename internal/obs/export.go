package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/trace"
)

// Timeline is a point-in-time snapshot of a JobTrace: job metadata plus the
// span tree. It is what the HTTP surface serializes — snapshots are taken
// under the trace lock, rendering happens outside it.
type Timeline struct {
	JobID     string     `json:"job_id"`
	Status    string     `json:"status,omitempty"` // empty while live
	Done      bool       `json:"done"`
	StartedAt time.Time  `json:"started_at"`
	WallNs    int64      `json:"wall_ns"` // total at completion; elapsed-so-far while live
	Spans     []SpanNode `json:"spans"`
}

// SpanNode is one span in the nested tree form.
type SpanNode struct {
	Kind     string     `json:"kind"`
	StartNs  int64      `json:"start_ns"`
	DurNs    int64      `json:"dur_ns"`
	Open     bool       `json:"open,omitempty"` // still running at snapshot time
	Children []SpanNode `json:"children,omitempty"`
}

// Snapshot captures the trace as a Timeline. Open spans (a live job) report
// duration-so-far with Open set. Nil-safe (returns nil).
func (t *JobTrace) Snapshot() *Timeline {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	tl := &Timeline{
		JobID:     t.jobID,
		Status:    t.status,
		Done:      t.done,
		StartedAt: t.epoch,
		WallNs:    t.total,
	}
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	if !tl.Done {
		tl.WallNs = now
	}

	// Build the tree. Parents always precede children (a child is recorded
	// while or after its parent span opened), so one forward pass suffices.
	nodes := make([]SpanNode, len(spans))
	for i, sp := range spans {
		end, open := sp.End, false
		if end < 0 {
			end, open = now, true
		}
		nodes[i] = SpanNode{Kind: sp.Kind, StartNs: sp.Start, DurNs: end - sp.Start, Open: open}
	}
	// Attach bottom-up so each child subtree is complete before its parent
	// adopts it.
	for i := len(spans) - 1; i >= 0; i-- {
		p := spans[i].Parent
		if p >= 0 && p < len(nodes) {
			nodes[p].Children = append([]SpanNode{nodes[i]}, nodes[p].Children...)
		}
	}
	for i, sp := range spans {
		if sp.Parent == -1 {
			tl.Spans = append(tl.Spans, nodes[i])
		}
	}
	return tl
}

// WriteJSON writes the timeline as indented JSON.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

// WriteText renders the timeline as an indented human-readable tree:
//
//	job j-42  status=done  wall=12.4ms  started=...
//	  accept        @0s        120µs
//	    journal.append @10µs    85µs
//	  queue.wait    @120µs     1.2ms
//	  ...
func (tl *Timeline) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	status := tl.Status
	if status == "" {
		status = "live"
	}
	fmt.Fprintf(bw, "job %s  status=%s  wall=%s  started=%s\n",
		tl.JobID, status, time.Duration(tl.WallNs), tl.StartedAt.Format(time.RFC3339Nano))
	var walk func(n SpanNode, depth int)
	walk = func(n SpanNode, depth int) {
		open := ""
		if n.Open {
			open = " (open)"
		}
		fmt.Fprintf(bw, "  %s%-*s @%-12s %s%s\n",
			strings.Repeat("  ", depth), 24-2*depth, n.Kind,
			time.Duration(n.StartNs), time.Duration(n.DurNs), open)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, n := range tl.Spans {
		walk(n, 0)
	}
	return bw.Flush()
}

// WriteChrome writes the timeline in the Chrome trace_event encoding of
// internal/trace, through its writer — the JSON object form with "X"
// complete events and fixed-point microsecond timestamps — so a job's
// server-side spans open in Perfetto next to its simulated-time trace. The
// host spans become one process (pid 0 "earthd") with one thread per
// top-level stage.
func (tl *Timeline) WriteChrome(w io.Writer) error {
	cw := trace.NewChromeWriter(w)
	cw.Event(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":%s}}`, trace.JSONString("earthd job "+tl.JobID))
	var walk func(n SpanNode, tid int)
	walk = func(n SpanNode, tid int) {
		cw.Event(`{"ph":"X","pid":0,"tid":%d,"name":%s,"cat":"host","ts":%s,"dur":%s,"args":{"open":%t}}`,
			tid, trace.JSONString(n.Kind), trace.Micros(n.StartNs), trace.Micros(n.DurNs), n.Open)
		for _, c := range n.Children {
			walk(c, tid)
		}
	}
	for tid, n := range tl.Spans {
		cw.Event(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`, tid, trace.JSONString(n.Kind))
		walk(n, tid)
	}
	return cw.Close()
}

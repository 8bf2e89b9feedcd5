package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilRecorderIsSafe: a nil *Recorder is the disabled sink; every method
// must be callable and inert.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if id := r.MsgIssue(ClassGet, "f:S1", 0, 1, 7, 2, 100); id != 0 {
		t.Errorf("nil MsgIssue returned id %d, want 0", id)
	}
	r.MsgDone(1, 200)
	r.EUSpan(0, 1, "main", 0, 10)
	r.SUSpan(0, "get", 1, 0, 5, 10)
	r.NetSpan(0, 1, "get", 1, 2, 5, 15)
	r.Reset()
	r.SetNodes(4)
	if r.Nodes() != 0 || r.Horizon() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.Msgs() != nil || r.Spans() != nil {
		t.Error("nil recorder returned events")
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil WriteChrome emitted invalid JSON: %v", err)
	}
	if s := r.Summarize(); s == nil {
		t.Error("nil Summarize returned nil")
	}
}

func TestMsgLifecycle(t *testing.T) {
	r := NewRecorder(2)
	id := r.MsgIssue(ClassBlkGet, "walk:S3", 0, 1, 9, 16, 1000)
	if id != 1 {
		t.Fatalf("first message id = %d, want 1", id)
	}
	msgs := r.Msgs()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m.Class != ClassBlkGet || m.Site != "walk:S3" || m.Src != 0 || m.Dst != 1 ||
		m.Fiber != 9 || m.Words != 16 || m.Issue != 1000 {
		t.Errorf("message fields wrong: %+v", m)
	}
	if m.Done != -1 || m.Latency() != -1 {
		t.Errorf("in-flight message should have Done=-1, Latency=-1; got %d/%d",
			m.Done, m.Latency())
	}
	r.MsgDone(id, 4500)
	if got := r.Msgs()[0].Latency(); got != 3500 {
		t.Errorf("latency = %d, want 3500", got)
	}
	// Out-of-range and zero ids are ignored, not panics.
	r.MsgDone(0, 5000)
	r.MsgDone(99, 5000)
	if r.Horizon() != 4500 {
		t.Errorf("horizon = %d, want 4500", r.Horizon())
	}
}

// TestSUQueueDepth: the FIFO pending-set logic must report the number of
// tasks in the SU queue (including the arriving one) at enqueue time.
func TestSUQueueDepth(t *testing.T) {
	r := NewRecorder(1)
	// Three tasks arrive at t=0,1,2; the serial SU finishes them at 10,20,30.
	r.SUSpan(0, "a", 0, 0, 0, 10)
	r.SUSpan(0, "b", 0, 1, 10, 20)
	r.SUSpan(0, "c", 0, 2, 20, 30)
	// A fourth arrives after the first two completed.
	r.SUSpan(0, "d", 0, 25, 30, 40)
	want := []int{1, 2, 3, 2} // d sees only c (pending) plus itself
	for i, sp := range r.Spans() {
		if sp.Queue != want[i] {
			t.Errorf("span %d (%s): queue depth %d, want %d", i, sp.Name, sp.Queue, want[i])
		}
	}
}

func TestResetAndSetNodes(t *testing.T) {
	r := NewRecorder(2)
	r.MsgIssue(ClassPut, "", 0, 1, 1, 1, 10)
	r.EUSpan(0, 1, "main", 0, 5)
	r.Reset()
	if len(r.Msgs()) != 0 || len(r.Spans()) != 0 || r.Horizon() != 0 {
		t.Error("Reset left events behind")
	}
	if r.Nodes() != 2 {
		t.Errorf("Reset changed node count: %d", r.Nodes())
	}
	r.SetNodes(8)
	if r.Nodes() != 8 {
		t.Errorf("SetNodes(8) → %d", r.Nodes())
	}
	// A reused recorder describes the machine attached last, not the largest.
	r.SetNodes(4)
	if r.Nodes() != 4 {
		t.Errorf("SetNodes(4) after SetNodes(8) → %d", r.Nodes())
	}
}

// TestReusedRecorderHasNoPhantomNodes: a recorder reset and attached to a
// smaller machine exports process_name rows for that machine only.
func TestReusedRecorderHasNoPhantomNodes(t *testing.T) {
	r := NewRecorder(0)
	for _, nodes := range []int{2, 8, 2} {
		r.Reset()
		r.SetNodes(nodes)
		r.EUSpan(0, 1, "main", 0, 5)
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(buf.String(), `"name":"process_name"`); got != nodes {
			t.Errorf("%d-node machine: export has %d process_name rows:\n%s", nodes, got, buf.String())
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassGet: "get", ClassPut: "put", ClassBlkGet: "blkget",
		ClassBlkPut: "blkput", ClassAlloc: "alloc", ClassRPC: "rpc",
		ClassReply: "reply", ClassShared: "shared",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(99).String() != "?" {
		t.Errorf("out-of-range class: %q", Class(99).String())
	}
}

func TestHist(t *testing.T) {
	var h Hist
	h.Add(-5) // ignored
	for _, v := range []int64{0, 1, 2, 3, 7, 8, 1000} {
		h.Add(v)
	}
	if h.N != 7 {
		t.Fatalf("N = %d, want 7", h.N)
	}
	if h.Min != 0 || h.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", h.Min, h.Max)
	}
	if h.Sum != 1021 {
		t.Errorf("sum = %d, want 1021", h.Sum)
	}
	if h.Mean() != 1021/7 {
		t.Errorf("mean = %d, want %d", h.Mean(), int64(1021/7))
	}
	// Bucket layout: [2^i, 2^(i+1)); bucket 0 also holds 0.
	// 0,1 → b0; 2,3 → b1; 7 → b2; 8 → b3; 1000 → b9.
	wantBuckets := map[int]int64{0: 2, 1: 2, 2: 1, 3: 1, 9: 1}
	for i, c := range h.Buckets {
		if c != wantBuckets[i] {
			t.Errorf("bucket %d: count %d, want %d", i, c, wantBuckets[i])
		}
	}
	if q := h.Quantile(1.0); q < h.Max {
		t.Errorf("q100 = %d, below max %d", q, h.Max)
	}
	if q := h.Quantile(0.0); q < 1 {
		t.Errorf("q0 = %d, want a bucket upper edge >= 1", q)
	}
	var empty Hist
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty hist should report zeros")
	}
}

// synthRecorder builds a small fixed recording by hand: two nodes, one get
// and one in-flight put.
func synthRecorder() *Recorder {
	r := NewRecorder(2)
	id := r.MsgIssue(ClassGet, "walk:S3", 0, 1, 5, 1, 100)
	r.EUSpan(0, 5, "walk", 0, 100)
	r.NetSpan(0, 1, "get", id, 1, 100, 200)
	r.SUSpan(1, "get", id, 200, 200, 250)
	r.NetSpan(1, 0, "reply", id, 1, 250, 350)
	r.SUSpan(0, "reply", id, 350, 350, 380)
	r.MsgDone(id, 380)
	r.MsgIssue(ClassPut, "", 0, 1, 5, 1, 400) // never completed
	return r
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := synthRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 nodes x 5 metadata + 5 spans + 2 msgs x (b+e) = 19 events.
	if len(doc.TraceEvents) != 19 {
		t.Errorf("got %d events, want 19", len(doc.TraceEvents))
	}
	var phases = map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 10 || phases["X"] != 5 || phases["b"] != 2 || phases["e"] != 2 {
		t.Errorf("phase counts %v, want M:10 X:5 b:2 e:2", phases)
	}
}

func TestMicrosFixedPoint(t *testing.T) {
	cases := map[int64]string{
		0:     "0.000",
		1:     "0.001",
		999:   "0.999",
		1000:  "1.000",
		12345: "12.345",
		-1500: "-1.500",
	}
	for ns, want := range cases {
		if got := Micros(ns); got != want {
			t.Errorf("Micros(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := synthRecorder().Summarize()
	if s.Nodes != 2 {
		t.Errorf("summary nodes = %d", s.Nodes)
	}
	if len(s.Classes) != 2 {
		t.Fatalf("got %d classes, want 2 (get, put): %+v", len(s.Classes), s.Classes)
	}
	get, put := s.Classes[0], s.Classes[1]
	if get.Class != ClassGet || get.Count != 1 || get.Incomplete != 0 {
		t.Errorf("get class: %+v", get)
	}
	if put.Class != ClassPut || put.Count != 1 || put.Incomplete != 1 {
		t.Errorf("put class: %+v", put)
	}
	if get.Latency.N != 1 || get.Latency.Min != 280 {
		t.Errorf("get latency hist: %+v", get.Latency)
	}
	if len(s.PerNode) != 2 {
		t.Fatalf("got %d node rows, want 2", len(s.PerNode))
	}
	if s.PerNode[0].EUBusy != 100 || s.PerNode[0].EURuns != 1 {
		t.Errorf("node 0 EU stats: %+v", s.PerNode[0])
	}
	if s.PerNode[1].SUBusy != 50 || s.PerNode[1].SUTasks != 1 {
		t.Errorf("node 1 SU stats: %+v", s.PerNode[1])
	}
	if len(s.Links) != 2 || s.Links[0].Src != 0 || s.Links[0].Dst != 1 || s.Links[0].Words != 1 {
		t.Errorf("links: %+v", s.Links)
	}
	txt := s.String()
	for _, want := range []string{"walk:S3", "get", "(unattributed)"} {
		if !strings.Contains(txt, want) {
			t.Errorf("summary text missing %q:\n%s", want, txt)
		}
	}
	// Determinism of the text report.
	if txt != synthRecorder().Summarize().String() {
		t.Error("summary text is not deterministic")
	}
}

func TestCompileStats(t *testing.T) {
	var nilStats *CompileStats
	nilStats.AddPhase("parse", 5) // must not panic
	if nilStats.TotalNs() != 0 {
		t.Error("nil CompileStats TotalNs != 0")
	}
	st := &CompileStats{}
	st.AddPhase("parse", 1000)
	st.AddPhase("sema", 2500)
	if st.TotalNs() != 3500 {
		t.Errorf("TotalNs = %d, want 3500", st.TotalNs())
	}
	if len(st.Phases) != 2 || st.Phases[0].Name != "parse" || st.Phases[1].Ns != 2500 {
		t.Errorf("phases: %+v", st.Phases)
	}
	out := st.String()
	if !strings.Contains(out, "parse") || !strings.Contains(out, "sema") {
		t.Errorf("String() missing phases:\n%s", out)
	}
}

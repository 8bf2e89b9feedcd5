package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// completeTrace builds a completed trace with the given synthetic wall time.
func completeTrace(r *Recorder, id string, wall time.Duration) *JobTrace {
	t := r.NewTrace(id, time.Now())
	t.AddInterval(-1, KindQueueWait, 0, int64(wall)/2)
	t.AddInterval(-1, KindSimRun, int64(wall)/2, int64(wall))
	r.Track(t)
	// Force the completion total to the synthetic wall time so reservoir
	// ordering is deterministic in tests, then file through the real path.
	t.complete("done")
	t.mu.Lock()
	t.total = int64(wall)
	t.mu.Unlock()
	r.file(t)
	return t
}

func TestRingBoundedUnderSustainedLoad(t *testing.T) {
	r := New(Options{Enabled: true, Recent: 8, Slowest: 4})
	const jobs = 10000
	for i := 0; i < jobs; i++ {
		tr := r.NewTrace(fmt.Sprintf("j-%d", i), time.Now())
		tr.Start(-1, KindQueueWait)
		r.Track(tr)
		r.Complete(tr, "done")
	}
	live, ring, slow, completed := r.Stats()
	if live != 0 {
		t.Fatalf("live = %d after all jobs completed", live)
	}
	if ring != 8 {
		t.Fatalf("ring = %d, want 8", ring)
	}
	if slow != 4 {
		t.Fatalf("slow = %d, want 4", slow)
	}
	if completed != jobs {
		t.Fatalf("completed = %d, want %d", completed, jobs)
	}
	r.mu.Lock()
	idx := len(r.index)
	r.mu.Unlock()
	if idx > 8+4 {
		t.Fatalf("index holds %d traces, want <= %d (ring+reservoir)", idx, 8+4)
	}
}

func TestSlowestReservoirKeepsSlowest(t *testing.T) {
	r := New(Options{Enabled: true, Recent: 4, Slowest: 3})
	// Interleave durations so neither arrival order nor the recent ring
	// dictates reservoir membership: 10ms, 1ms, 50ms, 2ms, 30ms, 3ms, 40ms.
	durs := []time.Duration{10 * time.Millisecond, time.Millisecond, 50 * time.Millisecond,
		2 * time.Millisecond, 30 * time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond}
	for i, d := range durs {
		completeTrace(r, fmt.Sprintf("j-%d", i), d)
	}
	slow := r.Slowest()
	if len(slow) != 3 {
		t.Fatalf("reservoir size = %d, want 3", len(slow))
	}
	want := []time.Duration{50 * time.Millisecond, 40 * time.Millisecond, 30 * time.Millisecond}
	for i, tr := range slow {
		if got := time.Duration(tr.TotalNs()); got != want[i] {
			t.Fatalf("slowest[%d] = %s, want %s", i, got, want[i])
		}
	}
	// The slowest job fell out of the 4-deep recent ring long ago but must
	// still resolve by id through the reservoir.
	if tr := r.Lookup("j-2"); tr == nil || tr.TotalNs() != int64(50*time.Millisecond) {
		t.Fatalf("slowest job not resolvable via Lookup: %v", tr)
	}
}

func TestLookupPrefersLiveTrace(t *testing.T) {
	r := New(Options{Enabled: true})
	old := completeTrace(r, "j-1", time.Millisecond)
	fresh := r.NewTrace("j-1", time.Now())
	r.Track(fresh)
	if got := r.Lookup("j-1"); got != fresh {
		t.Fatalf("Lookup returned %p, want live trace %p (completed was %p)", got, fresh, old)
	}
	r.Complete(fresh, "done")
	if got := r.Lookup("j-1"); got != fresh {
		t.Fatal("Lookup should return the most recent completion")
	}
}

func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		tr := r.NewTrace("j-1", time.Time{})
		ix := tr.Start(-1, KindAccept)
		tr.StartAt(ix, KindJournalAppend, 0)
		tr.AddInterval(ix, KindCacheLookup, 0, 1)
		tr.End(ix)
		tr.Stages()
		r.Track(tr)
		r.Complete(tr, "done")
		r.Lookup("j-1")
		r.Recent()
		r.Slowest()
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f per op, want 0", allocs)
	}
	if New(Options{}) != nil {
		t.Fatal("New with Enabled=false must return the nil recorder")
	}
}

func TestSnapshotTree(t *testing.T) {
	r := New(Options{Enabled: true})
	tr := r.NewTrace("j-9", time.Now())
	acc := tr.StartAt(-1, KindAccept, 0)
	tr.AddInterval(acc, KindJournalAppend, 10, 40)
	tr.AddInterval(acc, "index.lookup", 40, 50)
	tr.End(acc)
	q := tr.Start(-1, KindQueueWait)
	tr.End(q)
	c := tr.Start(-1, KindCompile)
	tr.AddInterval(c, KindCacheLookup, 100, 200)
	tr.AddInterval(c, CompilePhasePrefix+"parse", 200, 300)
	tr.End(c)
	r.Track(tr)
	r.Complete(tr, "done")

	tl := tr.Snapshot()
	if !tl.Done || tl.Status != "done" {
		t.Fatalf("snapshot not terminal: done=%t status=%q", tl.Done, tl.Status)
	}
	if len(tl.Spans) != 3 {
		t.Fatalf("top-level spans = %d, want 3", len(tl.Spans))
	}
	if tl.Spans[0].Kind != KindAccept || len(tl.Spans[0].Children) != 2 {
		t.Fatalf("accept span wrong: %+v", tl.Spans[0])
	}
	if tl.Spans[0].Children[0].Kind != KindJournalAppend || tl.Spans[0].Children[1].Kind != "index.lookup" {
		t.Fatalf("accept children out of order: %+v", tl.Spans[0].Children)
	}
	if got := tl.Spans[2].Children[1].Kind; got != "compile.parse" {
		t.Fatalf("compile phase child = %q, want compile.parse", got)
	}
	if d := tl.Spans[0].Children[0].DurNs; d != 30 {
		t.Fatalf("journal.append dur = %d, want 30", d)
	}
}

func TestCompleteClosesOpenSpans(t *testing.T) {
	r := New(Options{Enabled: true})
	tr := r.NewTrace("j-c", time.Now())
	tr.Start(-1, KindQueueWait) // never explicitly ended: cancelled in queue
	r.Track(tr)
	r.Complete(tr, "cancelled")
	tl := tr.Snapshot()
	if len(tl.Spans) != 1 || tl.Spans[0].Open {
		t.Fatalf("open span not closed at completion: %+v", tl.Spans)
	}
	if tl.Status != "cancelled" {
		t.Fatalf("status = %q", tl.Status)
	}
}

func TestExportEncodings(t *testing.T) {
	r := New(Options{Enabled: true})
	tr := r.NewTrace(`j-"quote"`, time.Now())
	acc := tr.StartAt(-1, KindAccept, 0)
	tr.AddInterval(acc, KindJournalAppend, 1000, 2000)
	tr.End(acc)
	r.Track(tr)
	r.Complete(tr, "done")
	tl := tr.Snapshot()

	var jb bytes.Buffer
	if err := tl.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Timeline
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v\n%s", err, jb.String())
	}
	if back.JobID != tl.JobID || len(back.Spans) != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	var tb bytes.Buffer
	if err := tl.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status=done", KindAccept, KindJournalAppend} {
		if !strings.Contains(tb.String(), want) {
			t.Fatalf("text export missing %q:\n%s", want, tb.String())
		}
	}

	var cb bytes.Buffer
	if err := tl.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(cb.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, cb.String())
	}
	if chrome.DisplayTimeUnit != "ns" || len(chrome.TraceEvents) < 3 {
		t.Fatalf("chrome export malformed: unit=%q events=%d", chrome.DisplayTimeUnit, len(chrome.TraceEvents))
	}
}

// TestWriteChromeGolden pins Timeline.WriteChrome to the bytes it produced
// while it still carried its own copy of the trace_event framing (captured
// at commit 6ed1fe4, before the framing moved into internal/trace).
func TestWriteChromeGolden(t *testing.T) {
	tl := &Timeline{
		JobID: `j-"7" é`,
		Spans: []SpanNode{
			{Kind: KindAccept, StartNs: 0, DurNs: 120_345, Children: []SpanNode{
				{Kind: KindJournalAppend, StartNs: 10_007, DurNs: 85_001},
				{Kind: "index.lookup", StartNs: 96_000, DurNs: 5},
			}},
			{Kind: KindQueueWait, StartNs: 120_345, DurNs: 999},
			{Kind: KindCompile, StartNs: 121_344, DurNs: 4_000_000, Children: []SpanNode{
				{Kind: KindCacheLookup, StartNs: 121_400, DurNs: 1_234, Children: []SpanNode{
					{Kind: "compile.parse", StartNs: -1_500, DurNs: 42},
				}},
			}},
			{Kind: KindSimRun, StartNs: 4_121_344, DurNs: 1_000_000_001, Open: true},
		},
	}
	var got bytes.Buffer
	if err := tl.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/timeline_chrome.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WriteChrome diverges from the golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

func TestLoggerConstructors(t *testing.T) {
	var b bytes.Buffer
	lg, err := NewLogger(&b, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown", "job", "j-1")
	if s := b.String(); strings.Contains(s, "hidden") || !strings.Contains(s, "job=j-1") {
		t.Fatalf("text logger output wrong:\n%s", s)
	}
	b.Reset()
	lg, err = NewLogger(&b, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "n", 3)
	var rec map[string]any
	if err := json.Unmarshal(b.Bytes(), &rec); err != nil {
		t.Fatalf("json logger line invalid: %v\n%s", err, b.String())
	}
	if rec["msg"] != "shown" || rec["n"] != float64(3) {
		t.Fatalf("json record wrong: %v", rec)
	}
	if _, err := NewLogger(&b, "xml", "info"); err == nil {
		t.Fatal("want error for unknown format")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Fatal("want error for unknown level")
	}
	Discard().Info("dropped")
}

func TestBuildInfo(t *testing.T) {
	b := Info()
	if b.GoVersion == "" {
		t.Fatal("GoVersion empty")
	}
	// Under `go test` the module path is present even without VCS stamping.
	if b.Module == "" {
		t.Fatal("Module empty")
	}
	long := Build{Revision: "0123456789abcdef"}
	if got := long.ShortRevision(); got != "0123456789ab" {
		t.Fatalf("ShortRevision = %q", got)
	}
}

func TestStagesLiveDurations(t *testing.T) {
	r := New(Options{Enabled: true})
	tr := r.NewTrace("j-s", time.Now().Add(-time.Second))
	tr.AddInterval(-1, KindQueueWait, 0, int64(time.Millisecond))
	tr.Start(-1, KindSimRun)
	st := tr.Stages()
	if len(st) != 2 {
		t.Fatalf("stages = %d, want 2", len(st))
	}
	if st[0].Kind != KindQueueWait || st[0].Ns != int64(time.Millisecond) {
		t.Fatalf("closed stage wrong: %+v", st[0])
	}
	if st[1].Kind != KindSimRun || st[1].Ns <= 0 {
		t.Fatalf("open stage should report elapsed-so-far: %+v", st[1])
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSameSeedSameJobs(t *testing.T) {
	for _, w := range workloads {
		n := 3 * len(w.Block)
		for i := 0; i < n; i++ {
			a, b := w.job(11, i), w.job(11, i)
			if !bytes.Equal(a.Body, b.Body) {
				t.Fatalf("%s job %d: two generations with seed 11 differ", w.Name, i)
			}
		}
	}
}

// classCounts tallies (class, program) over the first n jobs.
func classCounts(w *workload, seed int64, n int) map[string]int {
	out := map[string]int{}
	for i := 0; i < n; i++ {
		j := w.job(seed, i)
		out[j.Class+" "+j.Prog.key()]++
	}
	return out
}

func TestOtherSeedSameProportions(t *testing.T) {
	for _, w := range workloads {
		n := 4 * len(w.Block)
		a, b := classCounts(w, 1, n), classCounts(w, 2, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give different class counts: %v vs %v", w.Name, a, b)
		}
		if len(w.Block) > 1 {
			same := true
			for i := 0; i < n; i++ {
				same = same && bytes.Equal(w.job(1, i).Body, w.job(2, i).Body)
			}
			if same {
				t.Errorf("%s: seeds 1 and 2 give the same job list", w.Name)
			}
		}
	}
	// An edit never repeats a unit the cache may still hold.
	w := workloadByName("compile_cold")
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		if j := w.job(5, i); j.Class == classEdit {
			if seen[j.Req.Source] {
				t.Fatalf("compile_cold job %d repeats an earlier edit's source", i)
			}
			seen[j.Req.Source] = true
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "a1", Parent: 1, Start: 10, End: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 15, 30, 30, 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func e2eOf(vals map[string]float64) map[string]measurement {
	return metricSet(vals).render(endToEnd)
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]float64{
		"setup_s": 1, "jobs_per_s": 100, "job_p50_ms": 10, "job_p95_ms": 20,
		"correct_share": 1, "sim_time_ms": 33.5, "comm_ops": 9126,
	}
	with := func(k string, v float64) map[string]float64 {
		m := map[string]float64{}
		for n, x := range base {
			m[n] = x
		}
		m[k] = v
		return m
	}
	run := func(vals map[string]float64) *resultFile {
		return &resultFile{Results: []*runResult{{Workload: "olden_warm", Seconds: 20, Clients: 2, Warmup: 280, EndToEnd: e2eOf(vals)}}}
	}
	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	for _, c := range []struct {
		name string
		cand map[string]float64
		want int
		says string
	}{
		{"identical", base, compareOK, ""},
		{"throughput down inside the bound", with("jobs_per_s", 100*(1-bound("jobs_per_s")/2)), compareOK, ""},
		{"throughput down past the bound", with("jobs_per_s", 100*(1-2*bound("jobs_per_s"))), compareBreach, verdictBreach},
		{"throughput up a lot", with("jobs_per_s", 300), compareOK, ""},
		{"latency up past the bound", with("job_p50_ms", 10*(1+2*bound("job_p50_ms"))), compareBreach, verdictBreach},
		{"latency down a lot", with("job_p50_ms", 1), compareOK, ""},
		{"one more message", with("comm_ops", 9127), compareBreach, verdictNotEqual},
		{"one fewer message", with("comm_ops", 9125), compareBreach, verdictNotEqual},
		{"a wrong answer", with("correct_share", 0.9999), compareBreach, verdictNotEqual},
	} {
		var out strings.Builder
		if got := compare(&out, run(base), run(c.cand)); got != c.want {
			t.Errorf("%s: exit status %d, want %d\n%s", c.name, got, c.want, out.String())
		}
		if c.says != "" && !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.says, out.String())
		}
	}

	// Different conditions are refused, not compared.
	for name, change := range map[string]func(*runResult){
		"nproc":   func(r *runResult) { r.Env.NProc = 64 },
		"go":      func(r *runResult) { r.Env.GoVersion = "go9.9" },
		"window":  func(r *runResult) { r.Seconds = 5 },
		"clients": func(r *runResult) { r.Clients = 7 },
		"flags":   func(r *runResult) { r.Flags = []string{"-shards", "3"} },
		"fs":      func(r *runResult) { r.JournalFS = "tmpfs" },
	} {
		cand := run(base)
		change(cand.Results[0])
		var out strings.Builder
		if got := compare(&out, run(base), cand); got != compareRefused {
			t.Errorf("changed %s: exit status %d, want %d (refused)\n%s", name, got, compareRefused, out.String())
		}
	}
	// The seed and the revision are expected to differ.
	cand := run(base)
	cand.Results[0].Seed, cand.Results[0].Env.Revision = 99, "abc"
	if got := compare(&strings.Builder{}, run(base), cand); got != compareOK {
		t.Errorf("different seed and revision: exit status %d, want ok", got)
	}
}

// TestSmokeEveryJobClass serves each workload's traffic from an in-process
// earthd configured as the workload's flags configure the real one, and
// proves that every (class, program) the workload can generate has an
// expected file and that earthd's answer matches it.
func TestSmokeEveryJobClass(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cfg := server.Config{}
		if w.Sharded {
			cfg.Shards, cfg.SimWorkers = 1, 2
		}
		if w.Journal {
			cfg.JournalDir = t.TempDir()
		}
		s, err := server.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		n := len(w.Block) // one block holds every template once
		var jobs []job
		for i := 0; i < n; i++ {
			jobs = append(jobs, w.job(7, i))
		}
		jobs = append(jobs, w.warmup()[:min(n, 5)]...)
		samples := drive(ts.URL, 2, expected, listOf(jobs))
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("%s: drain: %v", w.Name, err)
		}
		if len(samples) != len(jobs) {
			t.Errorf("%s: %d samples for %d jobs", w.Name, len(samples), len(jobs))
		}
		checkVariants(samples)
		seen := map[string]bool{}
		for _, x := range samples {
			seen[x.Job.Class+" "+x.Job.Prog.key()] = true
			if x.Err != "" {
				t.Errorf("%s job %d (%s %s): %s", w.Name, x.Job.Index, x.Job.Class, x.Job.Prog.key(), x.Err)
			}
		}
		for _, tpl := range w.Block {
			if !seen[tpl.Class+" "+tpl.Prog.key()] {
				t.Errorf("%s: no %s %s job was served", w.Name, tpl.Class, tpl.Prog.key())
			}
		}
		sum := summarize(samples, time.Hour, nil, nil)
		if sum.failed != 0 || sum.e2e["correct_share"] != 1 {
			t.Errorf("%s: summarize reports %d failed, correct_share %v", w.Name, sum.failed, sum.e2e["correct_share"])
		}
	}
}

// A wrong answer must be caught, named and counted.
func TestMismatchCounts(t *testing.T) {
	x := expectedOutput{Output: "120\n", MainRet: 120}
	if got := x.check("120\n", 120); got != "" {
		t.Errorf("matching response reported %q", got)
	}
	if x.check("121\n", 120) == "" || x.check("120\n", 121) == "" {
		t.Error("a differing output or main_ret passed the check")
	}
	j := workloadByName("olden_warm").job(1, 0)
	samples := []sample{
		{Job: j, Latency: time.Millisecond},
		{Job: j, Latency: time.Millisecond, Err: x.check("121\n", 120)},
	}
	sum := summarize(samples, time.Second, nil, nil)
	if sum.failed != 1 || sum.e2e["correct_share"] != 0.5 || len(sum.failures) != 1 {
		t.Errorf("failed=%d correct_share=%v failures=%v, want 1, 0.5 and one line", sum.failed, sum.e2e["correct_share"], sum.failures)
	}
	// Responses of one variant that disagree on simulated time are wrong
	// even when their output is right.
	a, b := sample{Job: j}, sample{Job: j}
	a.Result.TimeNs, b.Result.TimeNs = 100, 101
	pair := []sample{a, b}
	checkVariants(pair)
	if pair[0].Err != "" || pair[1].Err == "" {
		t.Errorf("nondeterministic time_ns not flagged: %q, %q", pair[0].Err, pair[1].Err)
	}
}

// The halo reference was captured from an unoptimized 128-node run rather
// than the 1-node sequential one; check it against the arithmetic instead:
// the (1/4, 1/2, 1/4) stencil on a ring conserves the sum of the cells,
// which start at 1 + (i mod 7)/3.
func TestHaloExpectedFollowsFromConservation(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < haloProgram.Nodes; i++ {
		sum += 1 + float64(i%7)/3
	}
	want := fmt.Sprintf("%.6f\n", sum)
	if got := expected[haloProgram.key()].Output; got != want {
		t.Errorf("halo expected output %q, conservation says %q", got, want)
	}
}

// BENCHMARK.json repeats the code's tables for the driver; they must agree.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := doc.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, code has %+v", i, g, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := doc.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %+v", i, g, d)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// Two jobs a second, each 100 ms long, with a two-second stall spoiling one
// slice: the headline numbers are the undisturbed ones.
func TestSummarizeIsMedianOverSlices(t *testing.T) {
	j := workloadByName("olden_warm").job(1, 0)
	var samples []sample
	for end := 500 * time.Millisecond; end <= 10*time.Second; end += 500 * time.Millisecond {
		lat := 100 * time.Millisecond
		if end > 4*time.Second && end < 6*time.Second {
			continue // nothing completes during the stall
		}
		if end == 6*time.Second {
			lat = 2100 * time.Millisecond // the job that sat through it
		}
		samples = append(samples, sample{Job: j, Start: end - lat, Latency: lat})
	}
	sum := summarize(samples, 10*time.Second, nil, nil)
	if got := sum.e2e["jobs_per_s"]; got != 2 {
		t.Errorf("jobs_per_s = %v, want 2", got)
	}
	if got := sum.e2e["job_p50_ms"]; got != 100 {
		t.Errorf("job_p50_ms = %v, want 100", got)
	}
	if got := sum.e2e["job_p95_ms"]; got != 100 {
		t.Errorf("job_p95_ms = %v, want 100", got)
	}
	if got := sum.layer["loadgen.job_max_ms"]; got != 2100 {
		t.Errorf("loadgen.job_max_ms = %v, want 2100: whole-window figures must keep the stall", got)
	}
	// The response read exactly as the window closes is outside it.
	if got := sum.layer["loadgen.samples"]; got != float64(len(samples)-1) {
		t.Errorf("loadgen.samples = %v, want %d", got, len(samples)-1)
	}
}

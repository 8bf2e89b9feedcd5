package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// setups is how many times a run sets earthd up. setup_s is their median;
// the last instance stays up and serves the measured window.
const setups = 3

// runResult is one workload's run: what was asked, what was measured.
type runResult struct {
	Workload  string                 `json:"workload"`
	Env       environment            `json:"environment"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Clients   int                    `json:"clients"`
	Flags     []string               `json:"earthd_flags"`
	Warmup    int                    `json:"warmup_jobs"`
	JournalFS string                 `json:"journal_fs,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"` // first few, with the job
	EndToEnd  map[string]measurement `json:"end_to_end"`
	PerLayer  map[string]measurement `json:"per_layer,omitempty"`
	Spans     []span                 `json:"spans,omitempty"`
}

// runner carries what every workload run of one invocation shares.
type runner struct {
	bin      string // the earthd binary
	workDir  string // scratch owned by this process, removed on exit
	nproc    int
	expected map[string]expectedOutput
}

// setUp starts earthd for w and answers the workload's fixed warm-up list.
// The clock runs from exec to the last warm-up response.
func (r *runner) setUp(w *workload, journalDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(r.bin, w.flags(r.nproc, journalDir))
	if err != nil {
		return nil, 0, err
	}
	warm := drive(d.url, w.clients(r.nproc), r.expected, listOf(w.warmup()))
	took := time.Since(t0)
	for _, s := range warm {
		if s.Err != "" {
			d.kill()
			return nil, 0, fmt.Errorf("warm-up job %d (%s %s): %s", s.Job.Index, s.Job.Class, s.Job.Prog.key(), s.Err)
		}
	}
	return d, took, nil
}

// run measures one workload: three set-ups, one measured window against
// the last instance, and — when traced — the in-process pass afterwards,
// once earthd is gone and cannot compete for the cores.
func (r *runner) run(w *workload, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds,
		Clients: w.clients(r.nproc), Warmup: len(w.warmup()),
		Flags: w.flags(r.nproc, "<fresh dir>"),
	}
	var d *daemon
	var journalDir string
	var setupS []float64
	for n := 0; n < setups; n++ {
		if d != nil {
			d.stop()
		}
		journalDir = filepath.Join(r.workDir, fmt.Sprintf("%s-journal-%d", w.Name, n))
		var took time.Duration
		var err error
		if d, took, err = r.setUp(w, journalDir); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer d.stop()
	var err error
	if res.Env, err = r.environment(d); err != nil {
		return nil, err
	}
	if w.Journal {
		res.JournalFS = fsType(journalDir)
	}

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	lag := watchLag(d)
	window := time.Duration(seconds) * time.Second
	samples := drive(d.url, res.Clients, r.expected, untilDeadline(w, seed, time.Now().Add(window)))
	lagMax := lag.stop()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	simNs, commOps := checkVariants(samples)
	for _, t := range w.Block {
		v := t.variant()
		if _, ok := simNs[v]; !ok {
			return nil, fmt.Errorf("%s: no correct response for %s inside the window; sim_time_ms and comm_ops would not cover the workload (first failure: %s)",
				w.Name, v, firstFailure(samples))
		}
	}
	sum := summarize(samples, window, simNs, commOps)
	sum.e2e["setup_s"] = median(setupS)
	res.Attempted, res.Failed = len(samples), sum.failed
	res.Failures = sum.failures
	res.EndToEnd = sum.e2e.render(endToEnd)

	if traced {
		layer := sum.layer
		serverSide(layer, before, after, len(samples), cpu1-cpu0)
		layer["journal.lag_max"] = float64(lagMax)
		if err := processSide(layer, d, journalDir, len(samples)); err != nil {
			return nil, err
		}
		d.stop() // idempotent with the deferred stop: the traced pass wants the cores to itself
		tr, err := tracedPass(w, seed, r.nproc, r.workDir, r.expected, window/2)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.metrics {
			layer[k] = v
		}
		res.PerLayer = layer.render(perLayer)
		res.Spans = tr.spans
	}
	return res, nil
}

func firstFailure(samples []sample) string {
	for _, s := range samples {
		if s.Err != "" {
			return s.Err
		}
	}
	return "none"
}

// summary is what the load generator alone can say about a window.
type summary struct {
	e2e      metricSet
	layer    metricSet
	failed   int
	failures []string
}

// windowSlices is how many equal parts the measured window is cut into. The
// headline numbers are medians over the slices, so a burst of host
// interference (this is a small shared VM) that spoils one or two slices
// does not move them; whole-window figures stay visible per layer.
const windowSlices = 5

// summarize turns a window's samples into metrics. A job counts toward
// throughput and latency only if its response was correct and had been
// read before the window closed; every job started counts as attempted.
func summarize(samples []sample, window time.Duration, simNs, commOps map[string]int64) summary {
	s := summary{e2e: metricSet{}, layer: metricSet{}}
	var lat, overhead, queue, compile, run []float64
	bySlice := make([][]float64, windowSlices)
	lastEnd := make([]time.Duration, windowSlices) // latest response read, per slice
	byClass, byProg := map[string][]float64{}, map[string][]float64{}
	var firstHalf, secondHalf, batched, refused, correct int
	for i := range samples {
		x := &samples[i]
		if x.Refused {
			refused++
		}
		if x.Err != "" {
			s.failed++
			if len(s.failures) < 5 {
				s.failures = append(s.failures, fmt.Sprintf("job %d (%s %s): %s", x.Job.Index, x.Job.Class, x.Job.Prog.key(), x.Err))
			}
			continue
		}
		correct++
		if x.end() >= window {
			continue
		}
		ms := float64(x.Latency) / 1e6
		lat = append(lat, ms)
		k := int(x.end() * windowSlices / window)
		bySlice[k] = append(bySlice[k], ms)
		lastEnd[k] = max(lastEnd[k], x.end())
		byClass[x.Job.Class] = append(byClass[x.Job.Class], ms)
		byProg[x.Job.Prog.Name] = append(byProg[x.Job.Prog.Name], ms)
		r := &x.Result
		overhead = append(overhead, float64(x.Latency.Nanoseconds()-r.QueueNs-r.CompileNs-r.RunNs)/1e3)
		queue = append(queue, float64(r.QueueNs)/1e3)
		compile = append(compile, float64(r.CompileNs)/1e3)
		run = append(run, float64(r.RunNs)/1e3)
		if r.Batched {
			batched++
		}
		if x.end() < window/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	// A slice's rate runs from the last response before it to the last
	// response inside it, so it counts whole jobs over the time they took
	// instead of rounding to the slice's edges.
	var rate, p50, p95 []float64
	from := time.Duration(0)
	for k, xs := range bySlice {
		if to := lastEnd[k]; to > from {
			rate = append(rate, float64(len(xs))/(to-from).Seconds())
			from = to
		} else {
			rate = append(rate, 0)
		}
		p50 = append(p50, percentile(xs, 0.50))
		p95 = append(p95, percentile(xs, 0.95))
	}
	var simTotal, opsTotal int64
	for v := range simNs {
		simTotal += simNs[v]
		opsTotal += commOps[v]
	}
	s.e2e["jobs_per_s"] = median(rate)
	s.e2e["job_p50_ms"] = median(p50)
	s.e2e["job_p95_ms"] = median(p95)
	s.e2e["correct_share"] = ratio(float64(correct), float64(len(samples)))
	s.e2e["sim_time_ms"] = float64(simTotal) / 1e6
	s.e2e["comm_ops"] = float64(opsTotal)

	s.layer["loadgen.samples"] = float64(len(lat))
	s.layer["loadgen.job_p99_ms"] = percentile(lat, 0.99)
	s.layer["loadgen.job_max_ms"] = percentile(lat, 1)
	s.layer["loadgen.first_half_jobs_per_s"] = float64(firstHalf) / (window.Seconds() / 2)
	s.layer["loadgen.second_half_jobs_per_s"] = float64(secondHalf) / (window.Seconds() / 2)
	for c, xs := range byClass {
		s.layer["class."+c+".p50_ms"] = percentile(xs, 0.50)
	}
	for p, xs := range byProg {
		s.layer["prog."+p+".p50_ms"] = percentile(xs, 0.50)
	}
	s.layer["server.http_overhead_us"] = median(overhead)
	s.layer["server.queue_wait_us"] = median(queue)
	s.layer["server.compile_us"] = median(compile)
	s.layer["server.run_us"] = median(run)
	s.layer["server.batched_share"] = ratio(float64(batched), float64(len(lat)))
	s.layer["server.refused"] = float64(refused)
	return s
}

// stageMetric maps earthd's stage names to the metric that reports each
// stage's share of earthd_job_wall_ns.
var stageMetric = map[string]string{
	"accept":           "server.stage_accept_share",
	"queue.wait":       "server.stage_queue_wait_share",
	"compile":          "server.stage_compile_share",
	"sim.run":          "server.stage_sim_run_share",
	"journal.complete": "server.stage_journal_complete_share",
	"respond":          "server.stage_respond_share",
}

// serverSide fills the metrics earthd accounts for itself, as differences
// of its counters across the measured window.
func serverSide(m metricSet, before, after map[string]int64, jobs int, cpuS float64) {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	wall := delta("earthd_job_wall_ns.sum")
	for stage, name := range stageMetric {
		m[name] = ratio(delta(fmt.Sprintf("earthd_stage_ns{stage=%q}.sum", stage)), wall)
	}
	hits, misses := delta("earth_cache_hits_total"), delta("earth_cache_misses_total")
	m["cache.unit_hit_share"] = ratio(hits, hits+misses)
	reused, rebuilt := delta("earth_cache_funcs_reused_total"), delta("earth_cache_funcs_recompiled_total")
	m["cache.funcs_reused_share"] = ratio(reused, reused+rebuilt)
	m["cache.evictions"] = delta("earth_cache_evictions_total")
	m["earthd.gc_cycles"] = delta("process_gc_cycles_total")
	m["earthd.cpu_ms_per_job"] = ratio(cpuS*1e3, float64(jobs))
}

// processSide fills what only the live process and its journal directory
// can say; it must run before earthd stops.
func processSide(m metricSet, d *daemon, journalDir string, jobs int) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	m["earthd.peak_rss_mb"] = rss
	var h health
	if err := d.getJSON("/healthz", &h); err != nil {
		return err
	}
	if h.Journal == nil {
		return nil
	}
	m["journal.segments"] = float64(h.Journal.Segments)
	m["journal.compactions"] = float64(h.Journal.Compactions)
	// Bytes on disk now over jobs journaled in the window: warm-up records
	// inflate it slightly, compaction deflates it.
	entries, err := os.ReadDir(journalDir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	m["journal.bytes_per_job"] = ratio(float64(bytes), float64(jobs))
	return nil
}

// lagWatch polls /healthz through the window for the journal's largest
// unsynced backlog, four times a second: enough to see it grow, too little
// to load earthd.
type lagWatch struct {
	quit chan struct{}
	wg   sync.WaitGroup
	max  int
}

func watchLag(d *daemon) *lagWatch {
	l := &lagWatch{quit: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-tick.C:
				var h health
				if d.getJSON("/healthz", &h) == nil && h.Journal != nil && h.Journal.Lag > l.max {
					l.max = h.Journal.Lag
				}
			}
		}
	}()
	return l
}

func (l *lagWatch) stop() int {
	close(l.quit)
	l.wg.Wait()
	return l.max
}

// print writes a run the way a person reads it: every metric by name with
// its unit, end-to-end first.
func (res *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed=%d  window=%ds  clients=%d  earthd %s  warm-up=%d jobs\n",
		res.Workload, res.Seed, res.Seconds, res.Clients, strings.Join(res.Flags, " "), res.Warmup)
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	table := func(defs []metricDef, vals map[string]measurement) {
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	table(endToEnd, res.EndToEnd)
	if res.PerLayer != nil {
		fmt.Fprintf(w, "  -- per layer (%d spans recorded) --\n", len(res.Spans))
		table(perLayer, res.PerLayer)
	}
}

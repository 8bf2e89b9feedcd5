// Command earthload drives an earthd service with a mixed Olden workload at
// configurable concurrency and reports sustained throughput and latency
// percentiles — the proof that the sharded service holds up under
// production-style traffic.
//
// Usage:
//
//	earthload [flags]
//
//	-addr URL     target an already-running earthd (e.g. http://localhost:8080)
//	-selfhost     start an in-process earthd on a loopback port instead
//	-shards N     selfhost shard count (default 4)
//	-c N          concurrent clients (default 8)
//	-n N          total jobs (default 40)
//	-mix names    benchmark mix, round-robin (default all five Olden)
//	-nodes N      simulated machine size per job (default 4)
//	-full         use the benchmarks' full default sizes instead of the
//	              quick parameters
//	-attrib       after the run, fetch the server's per-stage latency
//	              histograms (/metrics.json) and print the tail-latency
//	              attribution table — which stage dominates p99
//	-log-format f diagnostics encoding: text or json (default text)
//
// The report goes to stderr. The exit status is 1 if any job failed and 2 on
// a usage error. On SIGINT the run stops issuing new jobs, reports the
// partial throughput/latency summary for the jobs that did complete, and
// exits 130 — an interrupted run never vanishes without its numbers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/olden"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("earthload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "target earthd base URL (empty with -selfhost)")
	selfhost := fs.Bool("selfhost", false, "start an in-process earthd on a loopback port")
	shards := fs.Int("shards", 4, "selfhost shard count")
	conc := fs.Int("c", 8, "concurrent clients")
	total := fs.Int("n", 40, "total jobs")
	mix := fs.String("mix", "", "comma-separated benchmark mix (default: all five Olden)")
	nodes := fs.Int("nodes", 4, "simulated machine size per job")
	full := fs.Bool("full", false, "use full benchmark sizes instead of quick parameters")
	attrib := fs.Bool("attrib", false, "print the server's per-stage tail-latency attribution after the run")
	logFormat := fs.String("log-format", "text", "diagnostics encoding: text or json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	log, err := obs.NewLogger(stderr, *logFormat, "info")
	if err != nil {
		fmt.Fprintln(stderr, "earthload:", err)
		return 2
	}
	names := benchMix(*mix)
	if names == nil {
		log.Error("unknown benchmark in -mix", "mix", *mix)
		return 2
	}
	if !*selfhost && *addr == "" {
		log.Error("need -addr URL or -selfhost")
		return 2
	}

	// A SIGINT mid-run used to kill the process before any summary was
	// printed — minutes of load numbers lost. Trap it: stop issuing new
	// jobs, let in-flight ones finish, report the partial stats, exit 130.
	// A second SIGINT falls through to the default handler (hard kill).
	var interrupted atomic.Bool
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	defer close(done)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			interrupted.Store(true)
			signal.Stop(sig)
			log.Warn("interrupted — finishing in-flight jobs, reporting partial results")
		case <-done:
		}
	}()

	url := *addr
	var stop func()
	if *selfhost {
		url, stop, err = selfhostServer(*shards, *attrib)
		if err != nil {
			log.Error("selfhost start failed", "err", err)
			return 1
		}
	}
	st := drive(url, names, *conc, *total, *nodes, !*full, &interrupted, log)
	if *attrib {
		// Fetch before stopping the selfhost server: the histograms live
		// in the server's registry.
		rows, err := fetchAttribution(url)
		if err != nil {
			log.Error("attribution fetch failed", "err", err)
		} else {
			st.attrib = rows
		}
	}
	if stop != nil {
		stop()
	}
	if interrupted.Load() {
		log.Warn("partial run: interrupted before all jobs completed",
			"completed", st.ok+st.failed, "total", *total)
	}
	st.report(stderr, *shards)
	switch {
	case interrupted.Load():
		return 130
	case st.failed > 0:
		return 1
	}
	return 0
}

// benchMix resolves the -mix flag against the Olden registry (nil on an
// unknown name).
func benchMix(spec string) []string {
	if spec == "" {
		var names []string
		for _, b := range olden.All() {
			names = append(names, b.Name)
		}
		return names
	}
	var names []string
	for _, f := range strings.Split(spec, ",") {
		name := strings.TrimSpace(f)
		if olden.ByName(name) == nil {
			return nil
		}
		names = append(names, name)
	}
	return names
}

// selfhostServer starts an in-process earthd on a loopback port and returns
// its base URL plus a stop function that drains it. Host-side tracing is on
// only when the run wants the attribution table — the benchmarked
// configuration stays identical to earlier revisions otherwise.
func selfhostServer(shards int, withObs bool) (string, func(), error) {
	d := server.New(server.Config{Shards: shards, Obs: obs.Options{Enabled: withObs}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Drain(ctx)
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// stats accumulates one load run's outcomes.
type stats struct {
	ok, failed, retried int
	batched             int
	latencies           []time.Duration // successful jobs only
	wall                time.Duration
	perShard            map[int]int
	attrib              []stageRow // per-stage tail latency, when -attrib
}

// stageRow is one stage of the server's tail-latency attribution report,
// decoded from the earthd_stage_ns histograms in /metrics.json.
type stageRow struct {
	stage         string
	count         int64
	p50, p95, p99 int64
}

// fetchAttribution pulls the server's merged registry and extracts the
// per-stage host-latency histograms recorded by its span timelines.
func fetchAttribution(base string) ([]stageRow, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: status %d", resp.StatusCode)
	}
	var m struct {
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
			P50   int64  `json:"p50"`
			P95   int64  `json:"p95"`
			P99   int64  `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	const prefix = `earthd_stage_ns{stage="`
	var rows []stageRow
	for _, h := range m.Histograms {
		if !strings.HasPrefix(h.Name, prefix) || h.Count == 0 {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(h.Name, prefix), `"}`)
		rows = append(rows, stageRow{stage: stage, count: h.Count, p50: h.P50, p95: h.P95, p99: h.P99})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no earthd_stage_ns histograms (is the server running with -obs?)")
	}
	// Order by p99 contribution, dominant stage first — the question the
	// table answers is "where does p99 go?".
	sort.Slice(rows, func(i, j int) bool { return rows[i].p99 > rows[j].p99 })
	return rows, nil
}

func (s *stats) jobsPerSec() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.ok) / s.wall.Seconds()
}

func (s *stats) pct(q float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(s.latencies)-1))
	return s.latencies[i]
}

func (s *stats) report(w io.Writer, shards int) {
	sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
	fmt.Fprintf(w, "earthload: shards=%d jobs=%d failed=%d retried=%d wall=%.2fs\n",
		shards, s.ok+s.failed, s.failed, s.retried, s.wall.Seconds())
	fmt.Fprintf(w, "  throughput: %.2f jobs/sec sustained\n", s.jobsPerSec())
	fmt.Fprintf(w, "  latency: p50=%s p95=%s p99=%s max=%s\n",
		s.pct(0.50).Round(time.Millisecond), s.pct(0.95).Round(time.Millisecond),
		s.pct(0.99).Round(time.Millisecond), s.pct(1.0).Round(time.Millisecond))
	fmt.Fprintf(w, "  batching: %d of %d jobs shared a concurrent compile\n", s.batched, s.ok)
	var ids []int
	for id := range s.perShard {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var parts []string
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("%d:%d", id, s.perShard[id]))
	}
	fmt.Fprintf(w, "  shard distribution: %s\n", strings.Join(parts, " "))
	if len(s.attrib) > 0 {
		fmt.Fprintf(w, "  attribution (server host time by stage, p99-dominant first):\n")
		fmt.Fprintf(w, "    %-18s %8s %12s %12s %12s\n", "STAGE", "COUNT", "P50", "P95", "P99")
		for _, a := range s.attrib {
			fmt.Fprintf(w, "    %-18s %8d %12s %12s %12s\n", a.stage, a.count,
				time.Duration(a.p50).Round(time.Microsecond),
				time.Duration(a.p95).Round(time.Microsecond),
				time.Duration(a.p99).Round(time.Microsecond))
		}
	}
}

// drive fires total jobs at the service from conc concurrent clients,
// round-robining the benchmark mix, honoring 429/503 backpressure with the
// server's Retry-After hint. Once stop flips, workers finish their current
// job and issue no more.
func drive(base string, names []string, conc, total, nodes int, quick bool, stop *atomic.Bool, log *slog.Logger) *stats {
	st := &stats{perShard: make(map[int]int)}
	var mu sync.Mutex
	var next atomic.Int64
	client := &http.Client{Timeout: 5 * time.Minute}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || stop.Load() {
					return
				}
				body, _ := json.Marshal(server.JobRequest{
					V:         server.SchemaVersion,
					Benchmark: names[i%len(names)],
					Nodes:     nodes,
					Quick:     quick,
				})
				jt0 := time.Now()
				res, retries, err := post(client, base+"/jobs", body)
				lat := time.Since(jt0)
				mu.Lock()
				st.retried += retries
				if err != nil {
					st.failed++
					log.Error("job failed", "job", i, "benchmark", names[i%len(names)], "err", err)
				} else {
					st.ok++
					st.latencies = append(st.latencies, lat)
					if res.Batched {
						st.batched++
					}
					st.perShard[res.Shard]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(t0)
	return st
}

// post submits one job, retrying on 429/503 per the Retry-After hint (with
// a short floor so loopback tests don't spin), and returns the decoded
// result plus the retry count.
func post(client *http.Client, url string, body []byte) (*server.JobResult, int, error) {
	retries := 0
	for {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, retries, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, retries, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var r server.JobResult
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, retries, err
			}
			return &r, retries, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if retries >= 100 {
				return nil, retries, fmt.Errorf("status %d after %d retries", resp.StatusCode, retries)
			}
			retries++
			delay := 50 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				// Honor the hint, but cap it: this is a load generator, and
				// the hint is sized for polite clients.
				if d := time.Duration(ra) * time.Second / 4; d > delay {
					delay = d
				}
			}
			time.Sleep(delay)
		default:
			return nil, retries, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

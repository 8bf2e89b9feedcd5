// Command earthd is the sharded compile-and-simulate daemon: it accepts
// EARTH-C compile-and-simulate jobs over HTTP/JSON, runs them across N
// pipeline shards that share one content-hashed compile cache, and serves
// aggregated telemetry.
//
// Usage:
//
//	earthd [flags]
//
//	-addr host:port   listen address (default :8080; use 127.0.0.1:0 for a
//	                  random port — the bound address is logged)
//	-shards N         pipeline shards (default GOMAXPROCS, capped at 8)
//	-queue N          job queue depth; a full queue answers 429 with
//	                  Retry-After (default 64)
//	-j N              analysis workers per compile (default 1)
//	-sim-j N          goroutines running each job's simulator windows (0 or
//	                  1 = inline; results are identical for any value)
//	-nodes N          default simulated machine size for jobs (default 4)
//	-max-fuel N       per-job simulated instruction cap (default 500M;
//	                  negative = unlimited)
//	-job-deadline d   per-job host wall-clock bound (default 60s)
//	-drain d          drain timeout on SIGINT/SIGTERM (default 30s)
//	-cache-size N     shared compile cache capacity in units (default 64;
//	                  negative disables caching)
//	-journal-dir dir  durable job journal: accepted jobs are fsynced before
//	                  acknowledgement; on restart unfinished jobs replay and
//	                  completed ones answer re-submissions exactly once
//	-job-wall-deadline d  per-job wall-clock budget from acceptance to
//	                  completion (queue wait included); exceeding it aborts
//	                  the job with 504 (0 = off)
//	-obs              record per-job host-side timelines: span trees served
//	                  by GET /jobs/{id}/timeline and /debug/jobs, per-stage
//	                  latency histograms in /metrics (default true); the
//	                  last 64 completed timelines and the 16 slowest are
//	                  retained
//	-slow-job d       dump the timeline of any job slower than d into the
//	                  log (0 = off)
//	-log-format f     structured log encoding: text or json (default text)
//	-log-level l      log verbosity: debug, info, warn, error (default info;
//	                  debug adds a line per job, info an access-log line per
//	                  request)
//
// Submit a job:
//
//	curl -s localhost:8080/jobs -d '{"benchmark":"power","nodes":4,"quick":true}'
//	curl -s localhost:8080/jobs -d '{"source":"int main() { return 42; }","nodes":1}'
//
// Abort a job: DELETE /jobs/{id}; poll one: GET /jobs/{id} (ids come from
// the "id" request field or the result's job_id). Debug a slow one:
// GET /jobs/{id}/timeline?format=text.
//
// On SIGINT/SIGTERM the daemon stops intake (new submissions get 503),
// finishes every accepted job, flushes in-flight responses, and exits 0;
// jobs accepted before the signal are never lost. With -journal-dir, jobs
// survive even a SIGKILL: the journal replays them on the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("earthd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 0, "pipeline shards (0 = GOMAXPROCS capped at 8)")
	queue := fs.Int("queue", 0, "job queue depth (0 = default 64)")
	workers := fs.Int("j", 0, "analysis workers per compile (0 = default 1)")
	simJ := fs.Int("sim-j", 0, "goroutines running the simulator's event-loop windows per run (0 or 1 = inline); results are identical for any value")
	nodes := fs.Int("nodes", 0, "default simulated machine size (0 = default 4)")
	maxFuel := fs.Int64("max-fuel", 0, "per-job instruction cap (0 = default 500M, negative = unlimited)")
	jobDeadline := fs.Duration("job-deadline", 0, "per-job host wall-clock bound (0 = default 60s)")
	drain := fs.Duration("drain", 30*time.Second, "drain timeout on SIGINT/SIGTERM")
	cacheSize := fs.Int("cache-size", 0, "compile cache capacity in units (0 = default 64, negative = disabled)")
	journalDir := fs.String("journal-dir", "", "durable job journal directory (empty = journaling off)")
	wallDeadline := fs.Duration("job-wall-deadline", 0, "per-job wall-clock budget, acceptance to completion (0 = off)")
	obsOn := fs.Bool("obs", true, "record per-job host-side timelines (GET /jobs/{id}/timeline, /debug/jobs)")
	slowJob := fs.Duration("slow-job", 0, "dump timelines of jobs slower than this into the log (0 = off)")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: earthd [flags]")
		fs.Usage()
		return 2
	}

	log, err := obs.NewLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "earthd:", err)
		return 2
	}

	d, err := server.Open(server.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		Workers:         *workers,
		DefaultNodes:    *nodes,
		MaxFuel:         *maxFuel,
		JobDeadline:     *jobDeadline,
		SimWorkers:      *simJ,
		CacheSize:       *cacheSize,
		JournalDir:      *journalDir,
		JobWallDeadline: *wallDeadline,
		Obs: obs.Options{
			Enabled: *obsOn,
			SlowJob: *slowJob,
		},
		Logger: log,
	})
	if err != nil {
		log.Error("startup failed", "err", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	srv := &http.Server{Handler: d.Handler()}
	cfg := d.Config()
	// The bound address stays inside the message text: the boot smoke in
	// check.sh and the chaos harness both scan for "listening on <addr>".
	build := obs.Info()
	log.Info(fmt.Sprintf("listening on %s (%d shards, queue %d)", ln.Addr(), cfg.Shards, cfg.QueueDepth),
		"revision", build.ShortRevision(), "go", build.GoVersion, "obs", *obsOn)
	if cfg.JournalDir != "" {
		log.Info("journaling jobs", "dir", cfg.JournalDir)
	}

	done := server.ShutdownOnSignal(*drain, func(ctx context.Context) error {
		log.Info("draining (intake stopped, finishing accepted jobs)")
		// Drain first so every accepted job completes and its waiting
		// handler gets the outcome, then let the HTTP server retire those
		// in-flight responses.
		if err := d.Drain(ctx); err != nil {
			srv.Close()
			return err
		}
		return srv.Shutdown(ctx)
	})

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Error("serve failed", "err", err)
		return 1
	}
	if err := <-done; err != nil {
		log.Error("drain failed", "err", err)
		return 1
	}
	log.Info("drained cleanly")
	return 0
}

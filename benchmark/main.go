// Command benchmark measures one request's whole path through earthd. It
// builds cmd/earthd, starts the real binary on a loopback port, drives it
// over HTTP in a closed loop with a seeded job list, checks every response
// against a frozen reference, and prints every metric by name. With
// -trace 1 it then replays the same job list in-process with a span around
// each call into a layer and reports per-layer numbers instead.
//
// Usage (from the repository root):
//
//	go run -C benchmark . -workload olden_warm [-seed N] [-seconds S] [-trace 0|1] [-out f.json]
//	go run -C benchmark . -all [-seed N] [-seconds S] [-trace 0|1] [-out f.json]
//	go run -C benchmark . -compare base.json candidate.json
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}, holding the
// end-to-end metrics with -trace 0 and the per-layer metrics with -trace 1.
// README.md describes the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain())
}

// realMain returns the exit status so that deferred clean-up runs first.
func realMain() (status int) {
	name := flag.String("workload", "", "workload to run: olden_warm, compile_cold, halo_sharded or durable_observed")
	all := flag.Bool("all", false, "run every workload in turn")
	seed := flag.Int64("seed", 1, "seed for job order and edit constants")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: also replay the jobs in-process with per-layer spans and report per-layer metrics")
	out := flag.String("out", "", "also write the results (and, when traced, the spans) to this JSON file")
	cmp := flag.Bool("compare", false, "compare two result files: -compare base.json candidate.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare base.json candidate.json")
			return compareRefused
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	var todo []*workload
	switch {
	case *all && *name == "":
		todo = workloads
	case !*all && workloadByName(*name) != nil:
		todo = []*workload{workloadByName(*name)}
	default:
		fmt.Fprintln(os.Stderr, "benchmark: give -workload <name> or -all; workloads are:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", w.Name, w.Why)
		}
		return 2
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments, -seconds below 1, or -trace other than 0 or 1")
		return 2
	}

	handleSignals()
	defer janitor.run()
	r, err := newRunner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file := &resultFile{}
	for _, w := range todo {
		res, err := r.run(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		file.Results = append(file.Results, res)
		res.print(os.Stdout)
		if res.Failed > 0 {
			status = 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The driver's contract: one JSON object per run, last on stdout.
	for _, res := range file.Results {
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]measurement `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	return status
}

// newRunner builds earthd and claims a scratch directory inside the
// benchmark's own directory: nothing is read or written outside the
// checkout, and the scratch (journals included) is removed on exit.
func newRunner() (*runner, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, "benchmark", ".work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildEarthd(root, work)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	janitor.setScratch(dir)
	return &runner{bin: bin, workDir: dir, nproc: runtime.NumCPU(), expected: expected}, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/olden"
	"repro/internal/server"
)

// Job classes: how a job uses the layers behind earthd, not what program
// it carries.
const (
	classPlain   = "plain"   // named benchmark, server cache in play
	classCold    = "cold"    // "cache":"bypass": full compile, no cache traffic
	classEdit    = "edit"    // edited source under a stable name: unit miss, per-function reuse
	classTraced  = "traced"  // "trace_summary":true: per-job trace recorder
	classFaulted = "faulted" // lossy transport + reliable messaging
)

// program is one (benchmark, params, nodes) point: the unit an expected
// file is keyed by.
type program struct {
	Name   string
	Params olden.Params
	Nodes  int
}

// key names the program's expected file.
func (p program) key() string {
	return fmt.Sprintf("%s_s%d_i%d_n%d", p.Name, p.Params.Size, p.Params.Iters, p.Nodes)
}

func (p program) bench() *olden.Benchmark {
	if p.Name == "halo" {
		return olden.Halo()
	}
	return olden.ByName(p.Name)
}

func (p program) source() string { return p.bench().Source(p.Params) }

// template is one slot of a workload's repeating block.
type template struct {
	Prog  program
	Class string
}

// variant identifies everything simulated time and the operation counts
// depend on: the program point plus the fault spec.
func (t template) variant() string {
	if t.Class == classFaulted {
		return t.Prog.key() + "|" + faultSpec
	}
	return t.Prog.key()
}

// job is one generated request plus what the benchmark needs to judge the
// response. Only Body ever reaches earthd.
type job struct {
	Index   int
	Class   string
	Prog    program
	Variant string // template.variant()
	Req     server.JobRequest
	Body    []byte
}

// workload is one traffic mix against one earthd configuration.
type workload struct {
	Name string
	Why  string
	// Sharded runs earthd as "-shards 1 -sim-j nproc" with one client, so
	// the simulator's workers are not oversubscribed; otherwise earthd runs
	// at its defaults with nproc clients.
	Sharded bool
	// Journal adds -journal-dir and gives every job an "id", without which
	// a journaling earthd answers repeats from its completion records
	// instead of running them.
	Journal bool
	// Block is the repeating unit of the job list: every block holds each
	// template once, so class and program proportions never depend on the
	// seed; the seed only permutes the order inside each block.
	Block []template
	// WarmupBlocks sizes the fixed warm-up list (in blocks, unshuffled),
	// chosen so set-up takes about a second and a half at the commit that
	// added the benchmark: long enough that it is not process-launch
	// jitter, short enough to repeat three times a run.
	WarmupBlocks int
}

// flags are earthd's command-line flags beyond -addr; p is nproc and
// journalDir a fresh directory the run owns.
func (w *workload) flags(p int, journalDir string) []string {
	var f []string
	if w.Sharded {
		f = append(f, "-shards", "1", "-sim-j", strconv.Itoa(p))
	}
	if w.Journal {
		f = append(f, "-journal-dir", journalDir)
	}
	return f
}

// clients is the closed-loop client count.
func (w *workload) clients(p int) int {
	if w.Sharded {
		return 1
	}
	return p
}

func quickProgram(name string) program {
	b := olden.ByName(name)
	return program{Name: name, Params: olden.QuickParams(b), Nodes: 4}
}

var oldenNames = []string{"power", "tsp", "health", "perimeter", "voronoi"}

func oldenQuick(classes ...string) []template {
	var out []template
	for _, c := range classes {
		for _, n := range oldenNames {
			out = append(out, template{Prog: quickProgram(n), Class: c})
		}
	}
	return out
}

// tinyPrograms are the five Olden programs at sizes where the simulator
// run is a small fraction of the compile.
var tinyPrograms = []program{
	{Name: "power", Params: olden.Params{Size: 2, Iters: 1}, Nodes: 4},
	{Name: "tsp", Params: olden.Params{Size: 8}, Nodes: 4},
	{Name: "health", Params: olden.Params{Size: 1, Iters: 2}, Nodes: 4},
	{Name: "perimeter", Params: olden.Params{Size: 2}, Nodes: 4},
	{Name: "voronoi", Params: olden.Params{Size: 8}, Nodes: 4},
}

func tinyBlock() []template {
	var out []template
	for _, c := range []string{classCold, classEdit} {
		for _, p := range tinyPrograms {
			out = append(out, template{Prog: p, Class: c})
		}
	}
	return out
}

var haloProgram = program{Name: "halo", Params: olden.Halo().DefaultParams, Nodes: 128}

var workloads = []*workload{
	{
		Name:         "olden_warm",
		Why:          "earthd's dominant traffic: five quick Olden programs, every compile a unit-cache hit, sim.run on the sequential loop ~99% of stage time; interpreter work shows here, compiler work must not",
		Block:        oldenQuick(classPlain, classPlain, classPlain, classPlain),
		WarmupBlocks: 14,
	},
	{
		Name:         "compile_cold",
		Why:          "tiny Olden sizes, half cache-bypass and half edited source: front end, analyses, commsel and codegen dominate, and the two classes use the cache differently; simulator work must show little",
		Block:        tinyBlock(),
		WarmupBlocks: 12,
	},
	{
		Name:         "halo_sharded",
		Why:          "128-node ring halo on the sharded engine (-sim-j nproc, one shard, one client): few instructions per event, so heap, messages, window coordinator and sampler do the work; only workload on that engine",
		Sharded:      true,
		Block:        []template{{Prog: haloProgram, Class: classPlain}},
		WarmupBlocks: 25,
	},
	{
		Name:         "durable_observed",
		Why:          "olden_warm's programs with -journal-dir and unique ids, a quarter traced, a quarter on a lossy link: fsync-before-ack, completion records, trace recorder, reliable messaging; must not move olden_warm",
		Journal:      true,
		Block:        oldenQuick(classPlain, classPlain, classTraced, classFaulted),
		WarmupBlocks: 6,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

const (
	faultSpec = "drop=0.01"
	faultSeed = 7
)

// build renders template t as job number i. id is the job's idempotency
// key when the workload needs one; pad is the constant an edit-class job
// returns from its extra function.
func (w *workload) build(t template, i int, id string, pad int) job {
	p := t.Prog
	req := server.JobRequest{Nodes: p.Nodes}
	if w.Journal {
		req.ID = id
	}
	named := func() {
		req.Benchmark = p.Name
		req.Size, req.Iters = p.Params.Size, p.Params.Iters
	}
	switch {
	case p.Name == "halo":
		// Halo is not in earthd's benchmark registry; it travels as source.
		req.Name, req.Source = "halo.ec", p.source()
	case t.Class == classEdit:
		// A stable unit name makes successive submissions revisions of one
		// program; the new constant changes the source hash (unit-cache
		// miss) but only one function's content hash.
		req.Name = p.Name + ".ec"
		req.Source = p.source() + fmt.Sprintf("\nint bench_pad() { return %d; }\n", pad)
	case t.Class == classCold:
		named()
		req.Cache = "bypass"
	case t.Class == classTraced:
		named()
		req.TraceSummary = true
	case t.Class == classFaulted:
		named()
		req.Faults, req.FaultSeed = faultSpec, faultSeed
	default:
		named()
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(fmt.Sprintf("marshal job: %v", err)) // a JobRequest of strings and ints always marshals
	}
	return job{Index: i, Class: t.Class, Prog: p, Variant: t.variant(), Req: req, Body: body}
}

// job returns the i-th job of the measured list for seed. It is a pure
// function of (workload, seed, i): clients may call it concurrently, and
// the same seed always yields the same bytes.
func (w *workload) job(seed int64, i int) job {
	n := len(w.Block)
	block := i / n
	rng := rand.New(rand.NewSource(seed<<20 + int64(block)))
	perm := rng.Perm(n)
	// Distinct within a run (so an edit never repeats a cached unit), drawn
	// from the seed, and below the warm-up list's pads.
	pad := rand.New(rand.NewSource(seed)).Intn(1<<30) + i
	return w.build(w.Block[perm[i%n]], i, fmt.Sprintf("%d-%d", seed, i), pad)
}

// warmup is the fixed list every set-up answers before measurement: the
// blocks in template order, the same for every seed.
func (w *workload) warmup() []job {
	n := w.WarmupBlocks * len(w.Block)
	out := make([]job, n)
	for i := range out {
		out[i] = w.build(w.Block[i%len(w.Block)], i, fmt.Sprintf("warm-%d", i), 1<<31-1-i)
	}
	return out
}

// programs lists the workload's distinct program points in block order.
func (w *workload) programs() []program {
	seen := map[string]bool{}
	var out []program
	for _, t := range w.Block {
		if !seen[t.Prog.key()] {
			seen[t.Prog.key()] = true
			out = append(out, t.Prog)
		}
	}
	return out
}

// Package core is the compiler pipeline facade for this reproduction of
// Zhu & Hendren, "Communication Optimizations for Parallel C Programs"
// (PLDI 1998). It wires the front end, semantic analysis, SIMPLE lowering,
// the supporting analyses (points-to, read/write sets, locality), and the
// paper's communication optimization (possible-placement analysis +
// communication selection) into a single Compile call, exposing every
// intermediate artifact for inspection, testing, and execution on the
// EARTH-MANNA simulator.
package core

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/commsel"
	"repro/internal/earthc"
	"repro/internal/locality"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/rwsets"
	"repro/internal/sema"
	"repro/internal/simple"
	"repro/internal/threaded"
)

// Options configure compilation.
type Options struct {
	// Optimize enables the communication optimization (the paper's Phase
	// II). When false, the program is compiled "simple": every remote
	// access stays at its original statement as a synchronous operation.
	Optimize bool
	// Sel tunes the communication selection heuristics; zero values take
	// the paper's defaults (block threshold 3).
	Sel commsel.Options
	// NoInline disables the Phase I local function inliner (it normally
	// runs for both simple and optimized builds, as in McCAT).
	NoInline bool
	// DeclaredLayout keeps every struct in declaration order in an
	// optimized build: the paper's build, and the ablation's control for
	// field clustering. Without it an optimized build clusters the hot
	// fields of blocked structs (internal/layout).
	DeclaredLayout bool
	// Cache, when non-nil, memoizes compiles across Do calls (see
	// internal/cache): identical (options, profile, source) submissions
	// return the same immutable unit. Per-request policy (bypass, no-store)
	// rides on CompileRequest.Cache. A cache is safe to share between
	// pipelines and goroutines.
	Cache *cache.Cache
	// Deprecated: ignored; every compile is sequential.
	Workers int
	// Deprecated: ignored; every compile records its phase spans on
	// CompileResult.Phases.
	Stats bool
	// Metrics, when non-nil, receives telemetry from every compile and
	// run the pipeline performs (see internal/metrics): compile counts and
	// per-phase timing histograms (host time, from CompileResult.Phases),
	// run counts, simulated-time and guest-work counters. Run-derived
	// metrics record only simulated quantities, so for a fixed unit +
	// RunConfig the registry contents are deterministic. A nil registry
	// costs nothing.
	Metrics *metrics.Registry
}

// Unit is a compiled translation unit with all intermediate artifacts.
type Unit struct {
	Name      string
	File      *earthc.File
	Sema      *sema.Program
	Simple    *simple.Program
	PointsTo  *pointsto.Result
	RWSets    *rwsets.Result
	Locality  *locality.Result
	Placement *placement.Result // nil unless optimizing
	Report    *commsel.Report   // nil unless optimizing
	// SourceHash keys profiles to this unit's source text.
	SourceHash string
	// Warnings are non-fatal compilation notes (e.g. a stale profile).
	Warnings []string

	// tcache memoizes generated threaded code per codegen option set:
	// generation is deterministic and the program is immutable once built,
	// so repeated Runs of one unit reuse the same code. Guarded by tmu so a
	// unit can be driven from several goroutines.
	tmu    sync.Mutex
	tcache map[threaded.Options]*threaded.Program
}

// Profiles implement placement.FreqProvider directly.
var _ placement.FreqProvider = (*profile.Data)(nil)

// MustCompile compiles or panics; for tests and embedded benchmarks.
func MustCompile(name, src string, opt Options) *Unit {
	res, err := NewPipeline(opt).Do(CompileRequest{Name: name, Source: src})
	if err != nil {
		panic(err)
	}
	return res.Unit
}

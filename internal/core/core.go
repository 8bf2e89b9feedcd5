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
	"sort"
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
	"repro/internal/trace"
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
	// Inline tunes the inliner.
	Inline earthc.InlineOptions
	// ReorderFields enables the paper's suggested further work: struct
	// fields are permuted so remotely-accessed fields sit together,
	// shrinking the contiguous span a blocked transfer must move. The
	// program is compiled once to collect access counts, then recompiled
	// with the permuted layouts.
	ReorderFields bool
	// Cache, when non-nil, memoizes compiles across Do calls (see
	// internal/cache): identical (options, profile, source) submissions
	// return the same immutable unit. Per-request policy (bypass, no-store)
	// rides on CompileRequest.Cache. A cache is safe to share between
	// pipelines and goroutines.
	Cache *cache.Cache
	// Workers bounds the worker pool used to fan the per-function analysis
	// and transformation phases (points-to constraint generation, read/write
	// sets, locality, placement, communication selection) across goroutines.
	// 0 (or negative) means GOMAXPROCS; 1 forces a fully sequential compile.
	// The emitted SIMPLE form, report, and statistics counters are identical
	// for every worker count — parallel results are merged in deterministic
	// function order.
	Workers int
	// Stats collects per-phase compiler timings and communication
	// optimization counters on the compiled unit (Unit.Stats).
	Stats bool
	// Metrics, when non-nil, receives telemetry from every compile and
	// run the pipeline performs (see internal/metrics): compile counts and
	// per-phase timing histograms, run counts, simulated-time and guest-work
	// counters. Run-derived metrics record only simulated quantities, so for
	// a fixed unit + RunConfig the registry contents are deterministic. A nil
	// registry costs nothing.
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
	// Stats holds per-phase timings and optimization counters; nil unless
	// the pipeline's Stats option was on.
	Stats *trace.CompileStats

	// tcache memoizes generated threaded code per codegen option set:
	// generation is deterministic and the program is immutable once built,
	// so repeated Runs of one unit reuse the same code. Guarded by tmu so a
	// unit can be driven from several goroutines.
	tmu    sync.Mutex
	tcache map[threaded.Options]*threaded.Program
}

// Profiles implement placement.FreqProvider directly.
var _ placement.FreqProvider = (*profile.Data)(nil)

// reorderStructFields permutes each struct's fields so the most frequently
// remotely-accessed ones are contiguous at the front (stable by original
// order on ties). Returns whether any definition changed.
func reorderStructFields(file *earthc.File, u *Unit) bool {
	// Count remote accesses per (struct, top-level field).
	counts := make(map[string]map[string]int)
	bump := func(p *simple.Var, off int) {
		if !u.Locality.RemoteLoad(p) {
			return
		}
		layout := u.Simple.Structs[pointeeName(p)]
		if layout == nil {
			return
		}
		// Find the top-level field containing the word offset.
		for _, fname := range layout.Fields {
			fo := layout.Offsets[fname]
			if off >= fo && off < fo+layout.FieldSizes[fname] {
				m := counts[layout.Name]
				if m == nil {
					m = make(map[string]int)
					counts[layout.Name] = m
				}
				m[fname]++
				return
			}
		}
	}
	for _, fn := range u.Simple.Funcs {
		simple.WalkBasics(fn.Body, func(b *simple.Basic) {
			if b.Kind != simple.KAssign {
				return
			}
			if ld, ok := b.Rhs.(simple.LoadRV); ok {
				bump(ld.P, ld.Off)
			}
			if stv, ok := b.Lhs.(simple.StoreLV); ok {
				bump(stv.P, stv.Off)
			}
		})
	}
	changed := false
	for _, def := range file.Structs {
		m := counts[def.Name]
		if len(m) == 0 {
			continue
		}
		orig := make([]*earthc.Field, len(def.Fields))
		copy(orig, def.Fields)
		pos := make(map[*earthc.Field]int, len(def.Fields))
		for i, f := range def.Fields {
			pos[f] = i
		}
		sort.SliceStable(def.Fields, func(i, j int) bool {
			ci, cj := m[def.Fields[i].Name], m[def.Fields[j].Name]
			if ci != cj {
				return ci > cj
			}
			return pos[def.Fields[i]] < pos[def.Fields[j]]
		})
		for i := range def.Fields {
			if def.Fields[i] != orig[i] {
				changed = true
				break
			}
		}
	}
	return changed
}

func pointeeName(p *simple.Var) string {
	pt, ok := p.Type.(*earthc.PtrType)
	if !ok {
		return ""
	}
	sr, ok := pt.Elem.(*earthc.StructRef)
	if !ok {
		return ""
	}
	return sr.Name
}

// MustCompile compiles or panics; for tests and embedded benchmarks.
func MustCompile(name, src string, opt Options) *Unit {
	res, err := NewPipeline(opt).Do(CompileRequest{Name: name, Source: src})
	if err != nil {
		panic(err)
	}
	return res.Unit
}

package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/contenthash"
	"repro/internal/earthc"
	"repro/internal/profile"
	"repro/internal/threaded"
)

// CachePolicy is the per-request cache behavior. The zero value — use the
// pipeline's cache fully — is right for almost every caller.
type CachePolicy struct {
	// Bypass skips the cache entirely: no lookup, no store. The compile is
	// cold and leaves no trace in the cache.
	Bypass bool
	// NoStore permits lookups but records nothing new (a read-only probe).
	NoStore bool
}

// CompileRequest carries everything that defines one compile: the source,
// the profile it is guided by, and the cache policy. Pipeline-level
// configuration (optimization, selection tuning, workers, observability
// sinks, the cache itself) stays on Options; per-submission inputs live
// here, so earthd, earthcc, earthrun, and paperbench all construct jobs
// the same way.
type CompileRequest struct {
	// Name labels the unit (diagnostics, dumps). It is not part of any
	// cache key.
	Name string
	// Source is EARTH-C source text.
	Source string
	// Profile supplies measured execution frequencies from an instrumented
	// run (see internal/profile): placement replaces its static ×10/÷2/÷k
	// guesses with measured per-site factors and selection becomes
	// profile-guided. A profile whose source hash does not match Source is
	// ignored with a warning.
	Profile *profile.Data
	// Cache is the per-request cache policy.
	Cache CachePolicy
}

// CompileResult is a compile plus its cache outcome.
type CompileResult struct {
	// Unit is the compiled unit. On a cache hit it is the same immutable
	// *Unit a previous Do returned (including its memoized threaded code).
	Unit *Unit
	// Hit reports a whole-unit cache hit (no compilation happened).
	Hit bool
	// Key is the unit cache key ("" when no cache was consulted: none
	// configured, or the request bypassed it).
	Key string
	// FuncsReused / FuncsRecompiled are the unit's function count, on a
	// unit hit and on a compile respectively; the other is 0.
	FuncsReused     int
	FuncsRecompiled int
}

// fingerprint renders the compile-relevant options plus the bound profile
// into the cache namespace key. Workers is excluded (output is proven
// identical for every worker count), as are the observability sinks
// (tracing and metrics never alter the unit).
func (opt Options) fingerprint(prof *profile.Data) string {
	parts := []string{
		fmt.Sprintf("optimize=%t noinline=%t reorder=%t stats=%t",
			opt.Optimize, opt.NoInline, opt.ReorderFields, opt.Stats),
		fmt.Sprintf("inline=%+v", opt.Inline),
		fmt.Sprintf("sel=%+v", opt.Sel),
	}
	if prof != nil {
		var b strings.Builder
		if err := prof.Write(&b); err == nil {
			parts = append(parts, "profile", b.String())
		} else {
			// Unserializable profile: poison the key so nothing is shared.
			parts = append(parts, "profile", fmt.Sprintf("unhashable %p", prof))
		}
	}
	return contenthash.Parts(parts...)
}

// CacheKey returns the unit cache key Do would use for req ("" when no
// cache is configured). It lets artifact-level consumers (earthcc under
// -cache-dir) probe the disk store before deciding to compile.
func (p *Pipeline) CacheKey(req CompileRequest) string {
	if p.opt.Cache == nil {
		return ""
	}
	srcHash := profile.HashSource(req.Source)
	prof := req.Profile
	if prof != nil && prof.SourceHash != "" && prof.SourceHash != srcHash {
		prof = nil // Do would fall back to static heuristics
	}
	return cache.UnitKey(p.opt.fingerprint(prof), srcHash)
}

// Do runs one compile described by req, consulting and feeding the
// pipeline's cache according to req.Cache. It is the primary compile entry
// point; Compile and MustCompile are thin wrappers.
//
// Correctness contract: a unit hit yields byte-identical threaded-code
// disassembly — and byte-identical Result.Visible() on every run
// configuration — to a cold compile of the same request.
func (p *Pipeline) Do(req CompileRequest) (*CompileResult, error) {
	opt := p.opt
	st := p.newStats()
	res := &CompileResult{}
	prof := req.Profile
	var warnings []string
	c := opt.Cache
	reg := opt.Metrics
	srcHash := profile.HashSource(req.Source)
	if prof != nil && prof.SourceHash != "" && prof.SourceHash != srcHash {
		warnings = append(warnings,
			"profile is stale (collected from a different source revision); falling back to static frequency heuristics")
		prof = nil
	}
	// Unit-cache lookup comes before the parse: the key needs only the
	// source hash and the options fingerprint, so a warm recompile costs a
	// hash plus a map lookup.
	if c != nil && !req.Cache.Bypass {
		res.Key = cache.UnitKey(opt.fingerprint(prof), srcHash)
		if v, ok := c.LookupUnit(res.Key); ok {
			u := v.(*Unit)
			reg.Counter("earth_cache_hits_total", "Compiles served whole from the unit cache.").Inc()
			res.Unit, res.Hit = u, true
			res.FuncsReused = len(u.Simple.Funcs)
			return res, nil
		}
		reg.Counter("earth_cache_misses_total", "Compiles not served whole from the unit cache.").Inc()
	}
	t0 := time.Now()
	file, err := earthc.ParseFile(req.Name, req.Source)
	if err != nil {
		return nil, err
	}
	st.AddPhase("parse", time.Since(t0))
	u, err := p.compileAST(file, opt, prof, st)
	if err != nil {
		return nil, err
	}
	u.SourceHash = srcHash
	u.Warnings = append(warnings, u.Warnings...)
	p.finishCompile(u)
	res.Unit = u
	res.FuncsRecompiled = len(u.Simple.Funcs)
	if res.Key != "" && !req.Cache.NoStore {
		if ev := c.StoreUnit(res.Key, u); ev > 0 {
			reg.Counter("earth_cache_evictions_total", "Units evicted from the cache by capacity pressure.").Add(int64(ev))
		}
		if c.Dir() != "" {
			p.storeArtifact(c, res.Key, u)
		}
	}
	return res, nil
}

// Disasm renders the unit's canonical threaded-code disassembly: every
// function, sorted by name. This is the byte format the cache's
// correctness contract is stated over, and what `earthcc -dump=threaded`
// prints.
func (u *Unit) Disasm() (string, error) {
	tp, err := u.Threaded(threaded.Options{})
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(tp.Funcs))
	for n := range tp.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(tp.Funcs[n].Disasm())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// storeArtifact persists the unit's textual artifacts to the cache's disk
// store. Failures are silently ignored: the store is an optimization.
func (p *Pipeline) storeArtifact(c *cache.Cache, key string, u *Unit) {
	disasm, err := u.Disasm()
	if err != nil {
		return
	}
	report := ""
	if u.Report != nil {
		report = u.Report.String()
	}
	_ = c.StoreArtifact(key, &cache.Artifact{
		Name:       u.Name,
		SourceHash: u.SourceHash,
		Disasm:     disasm,
		Report:     report,
		Warnings:   u.Warnings,
	})
}

package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/olden"
	"repro/internal/profile"
)

// A three-function program for the cache tests.
const incHeader = `
struct Point {
	double x;
	double y;
	struct Point *next;
};
`

const incBuildV1 = `
Point *build(int n) {
	Point *head;
	Point *p;
	int i;
	head = NULL;
	for (i = 0; i < n; i++) {
		p = alloc_on(Point, 1);
		p->x = dbl(i);
		p->y = dbl(i * 2);
		p->next = head;
		head = p;
	}
	return head;
}
`

const incSumV1 = `
double sumlist(Point *p) {
	double s;
	s = 0.0;
	while (p != NULL) {
		s = s + p->x + p->y;
		p = p->next;
	}
	return s;
}
`

const incMain = `
int main() {
	Point *head;
	double s;
	head = build(20);
	s = sumlist(head);
	print_double(s);
	return trunc(s);
}
`

// incOpts compiles without inlining so the three functions stay distinct.
func incOpts(c *cache.Cache) Options {
	return Options{Optimize: true, NoInline: true, Cache: c}
}

// padded appends the uncalled function an edit-class benchmark job appends.
func padded(src string, pad int) string {
	return src + fmt.Sprintf("\nint bench_pad() { return %d; }\n", pad)
}

// TestEditIsAColdCompileThenAHit: an edited source under a stable unit name
// is a plain cold compile — every function rebuilt, output byte-identical to
// a cache-bypassing compile of the same bytes — whose unit is then stored.
func TestEditIsAColdCompileThenAHit(t *testing.T) {
	v1 := incHeader + incBuildV1 + incSumV1 + incMain
	c := cache.New(0, "")
	p := NewPipeline(incOpts(c))
	if _, err := p.Do(CompileRequest{Name: "edit.ec", Source: v1}); err != nil {
		t.Fatal(err)
	}
	req := CompileRequest{Name: "edit.ec", Source: padded(v1, 7)}
	r, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Unit.Simple.Funcs); r.Hit || r.FuncsReused != 0 || r.FuncsRecompiled != n {
		t.Errorf("edit: hit=%t reused=%d recompiled=%d, want a compile of all %d functions",
			r.Hit, r.FuncsReused, r.FuncsRecompiled, n)
	}
	bypass := req
	bypass.Cache = CachePolicy{Bypass: true}
	cold, err := p.Do(bypass)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Unit.Disasm()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Unit.Disasm()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("edit's disassembly differs from a bypass compile:\n--- edit ---\n%s\n--- bypass ---\n%s", got, want)
	}
	if g, w := r.Unit.Report.String(), cold.Unit.Report.String(); g != w {
		t.Errorf("edit's report differs from a bypass compile:\n%s\nvs\n%s", g, w)
	}
	again, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit || again.Unit != r.Unit {
		t.Errorf("resubmitted edit: hit=%t, same unit=%t", again.Hit, again.Unit == r.Unit)
	}
}

// TestDistinctNamesStayBounded: unit names are client-supplied (earthd's
// "name" field), so nothing the cache keeps may be keyed by them. 500
// distinctly named, distinct sources leave exactly the LRU's capacity
// resident.
func TestDistinctNamesStayBounded(t *testing.T) {
	src := olden.ByName("power").Source(olden.Params{Size: 2, Iters: 1})
	c := cache.New(4, "")
	p := NewPipeline(Options{Optimize: true, Cache: c})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 500; i++ {
		if _, err := p.Do(CompileRequest{Name: fmt.Sprintf("u%d.ec", i), Source: padded(src, i)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != 4 || c.Stats().Evictions != 496 {
		t.Errorf("after 500 distinct units: Len=%d evictions=%d, want 4 and 496", c.Len(), c.Stats().Evictions)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 40<<20 {
		t.Errorf("live heap grew by %d MB over 500 distinct names, want < 40", grew>>20)
	}
	runtime.KeepAlive(p)
}

// TestUnitCacheHit: an identical resubmission is served whole — the very
// same *Unit — and reports a hit.
func TestUnitCacheHit(t *testing.T) {
	src := incHeader + incBuildV1 + incSumV1 + incMain
	c := cache.New(0, "")
	p := NewPipeline(incOpts(c))
	r1, err := p.Do(CompileRequest{Name: "hit.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Do(CompileRequest{Name: "hit.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit || r2.Unit != r1.Unit {
		t.Errorf("identical resubmission: hit=%t, same unit=%t", r2.Hit, r2.Unit == r1.Unit)
	}
	if r2.FuncsReused != 3 || r2.FuncsRecompiled != 0 {
		t.Errorf("unit hit counters: reused=%d recompiled=%d", r2.FuncsReused, r2.FuncsRecompiled)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss", st)
	}
}

// TestCachePolicyBypass: Bypass compiles cold even against a warm cache and
// leaves no new state behind.
func TestCachePolicyBypass(t *testing.T) {
	src := incHeader + incBuildV1 + incSumV1 + incMain
	c := cache.New(0, "")
	p := NewPipeline(incOpts(c))
	if _, err := p.Do(CompileRequest{Name: "byp.ec", Source: src}); err != nil {
		t.Fatal(err)
	}
	r, err := p.Do(CompileRequest{Name: "byp.ec", Source: src, Cache: CachePolicy{Bypass: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit || r.FuncsReused != 0 {
		t.Errorf("bypass compile consulted the cache: hit=%t reused=%d", r.Hit, r.FuncsReused)
	}
}

// TestDiskArtifactLifecycle: a -cache-dir compile persists an artifact whose
// disassembly matches the unit's; a corrupted entry degrades to a miss and a
// recompile stores a fresh valid one.
func TestDiskArtifactLifecycle(t *testing.T) {
	src := incHeader + incBuildV1 + incSumV1 + incMain
	dir := t.TempDir()
	c := cache.New(0, dir)
	p := NewPipeline(incOpts(c))
	req := CompileRequest{Name: "disk.ec", Source: src}
	r, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	key := p.CacheKey(req)
	if key == "" || key != r.Key {
		t.Fatalf("CacheKey %q != Do's key %q", key, r.Key)
	}
	a, ok := c.LoadArtifact(key)
	if !ok {
		t.Fatal("compile under -cache-dir stored no artifact")
	}
	d, err := r.Unit.Disasm()
	if err != nil {
		t.Fatal(err)
	}
	if a.Disasm != d {
		t.Error("persisted disassembly differs from the unit's")
	}

	// Corrupt every stored entry; the next load must miss cleanly and the
	// next compile (fresh pipeline+cache, as after a process restart) must
	// succeed and heal the store.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("cache dir unreadable or empty: %v", err)
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("truncated"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c2 := cache.New(0, dir)
	if _, ok := c2.LoadArtifact(key); ok {
		t.Fatal("corrupted artifact validated")
	}
	p2 := NewPipeline(Options{Optimize: true, NoInline: true, Cache: c2})
	r2, err := p2.Do(req)
	if err != nil {
		t.Fatalf("cold fallback after corruption failed: %v", err)
	}
	d2, err := r2.Unit.Disasm()
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Error("post-corruption recompile produced different disassembly")
	}
	if a2, ok := c2.LoadArtifact(key); !ok || a2.Disasm != d {
		t.Error("recompile did not re-store a valid artifact")
	}
}

// TestOlderEpochArtifactMisses: an artifact a compiler of the previous
// epoch stored for the same options and source is not found under this
// compiler's key, so -cache-dir never serves code this compiler would not
// emit.
func TestOlderEpochArtifactMisses(t *testing.T) {
	src := incHeader + incBuildV1 + incSumV1 + incMain
	c := cache.New(0, t.TempDir())
	opt := incOpts(c)
	p := NewPipeline(opt)
	req := CompileRequest{Name: "epoch.ec", Source: src}
	old := cache.UnitKey(opt.fingerprintAt(compilerEpoch-1, nil), profile.HashSource(src))
	if err := c.StoreArtifact(old, &cache.Artifact{Name: req.Name, Disasm: "older compiler's code"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadArtifact(old); !ok {
		t.Fatal("the previous epoch's artifact did not store")
	}
	key := p.CacheKey(req)
	if key == old {
		t.Fatal("the previous epoch and this one share a cache key")
	}
	if _, ok := c.LoadArtifact(key); ok {
		t.Fatal("this compiler's key found the previous epoch's artifact")
	}
	r, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Error("the compile hit the cache")
	}
}

package cache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnitLRUEvictionOrder(t *testing.T) {
	c := New(2, "")
	if _, ok := c.LookupUnit("a"); ok {
		t.Fatal("hit on an empty cache")
	}
	if ev := c.StoreUnit("a", "ua"); ev != 0 {
		t.Fatalf("storing into an empty cache evicted %d", ev)
	}
	c.StoreUnit("b", "ub")
	// Touch a so b becomes the LRU victim.
	if v, ok := c.LookupUnit("a"); !ok || v.(string) != "ua" {
		t.Fatalf("LookupUnit(a) = %v, %t", v, ok)
	}
	if ev := c.StoreUnit("c", "uc"); ev != 1 {
		t.Fatalf("storing past capacity evicted %d units, want 1", ev)
	}
	if _, ok := c.LookupUnit("b"); ok {
		t.Error("b survived eviction; LRU order is wrong")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.LookupUnit(k); !ok {
			t.Errorf("%s was evicted; LRU order is wrong", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 3 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 3 hits, 2 misses", st)
	}
}

func TestStoreUnitRefresh(t *testing.T) {
	c := New(2, "")
	c.StoreUnit("a", "old")
	if ev := c.StoreUnit("a", "new"); ev != 0 {
		t.Fatalf("refresh evicted %d", ev)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after refresh, want 1", c.Len())
	}
	if v, _ := c.LookupUnit("a"); v.(string) != "new" {
		t.Errorf("refresh kept the old unit %v", v)
	}
}

// TestNilCacheSafe: every method must be a no-op on a nil *Cache, so a
// pipeline without a cache needs no branches.
func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.LookupUnit("k"); ok {
		t.Error("nil cache reported a hit")
	}
	c.StoreUnit("k", "u")
	if c.Len() != 0 || c.Dir() != "" {
		t.Error("nil cache not inert")
	}
	if c.Stats() != (Stats{}) {
		t.Error("nil cache accumulated stats")
	}
	if _, ok := c.LoadArtifact("k"); ok {
		t.Error("nil cache loaded an artifact")
	}
	if err := c.StoreArtifact("k", &Artifact{}); err != nil {
		t.Errorf("nil StoreArtifact: %v", err)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	c := New(0, t.TempDir())
	a := &Artifact{
		Name:       "t.ec",
		SourceHash: "sha256:aa",
		Disasm:     "main:\n  RET\n",
		Report:     "report text",
		Warnings:   []string{"w1", "w2"},
	}
	const key = "sha256:0123abcd"
	if err := c.StoreArtifact(key, a); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadArtifact(key)
	if !ok {
		t.Fatal("stored artifact not loadable")
	}
	if got.Key != key || got.Disasm != a.Disasm || got.Report != a.Report ||
		got.Name != a.Name || len(got.Warnings) != 2 {
		t.Errorf("round-trip mangled the artifact: %+v", got)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Errorf("disk stats = %+v, want exactly 1 hit", st)
	}
}

func TestArtifactMissing(t *testing.T) {
	c := New(0, t.TempDir())
	if _, ok := c.LoadArtifact("sha256:nothere"); ok {
		t.Fatal("hit on an empty store")
	}
	if st := c.Stats(); st.DiskMisses != 1 || st.DiskCorrupt != 0 {
		t.Errorf("disk stats = %+v, want 1 clean miss", st)
	}
}

// TestArtifactCorruption: every damaged-entry shape — truncation, payload
// tampering, key mismatch, garbage — must validate as a miss and delete the
// entry, never serve wrong bytes.
func TestArtifactCorruption(t *testing.T) {
	damage := []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"tampered-payload", func(d []byte) []byte {
			return []byte(strings.Replace(string(d), "RET", "JMP", 1))
		}},
		{"garbage", func(d []byte) []byte { return []byte("not json at all") }},
		{"empty", func(d []byte) []byte { return nil }},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			c := New(0, t.TempDir())
			const key = "sha256:feedface"
			if err := c.StoreArtifact(key, &Artifact{Name: "t.ec", Disasm: "main:\n  RET\n"}); err != nil {
				t.Fatal(err)
			}
			path := c.artifactPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.LoadArtifact(key); ok {
				t.Fatal("corrupted artifact validated")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupted entry not deleted")
			}
			if st := c.Stats(); st.DiskCorrupt != 1 {
				t.Errorf("stats = %+v, want DiskCorrupt = 1", st)
			}
		})
	}
}

// TestArtifactKeyMismatch: an entry surfacing under the wrong key (a copied
// or renamed cache file) fails its self-validation.
func TestArtifactKeyMismatch(t *testing.T) {
	c := New(0, t.TempDir())
	if err := c.StoreArtifact("sha256:aaaa", &Artifact{Disasm: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.artifactPath("sha256:aaaa"), c.artifactPath("sha256:bbbb")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadArtifact("sha256:bbbb"); ok {
		t.Fatal("mis-keyed artifact validated")
	}
	if st := c.Stats(); st.DiskCorrupt != 1 {
		t.Errorf("stats = %+v, want DiskCorrupt = 1", st)
	}
}

func TestArtifactPathScheme(t *testing.T) {
	c := New(0, "/tmp/store")
	got := c.artifactPath("sha256:00ff")
	if got != filepath.Join("/tmp/store", "00ff.json") {
		t.Errorf("artifactPath = %q", got)
	}
}

func TestKeyDerivation(t *testing.T) {
	if UnitKey("fp", "src") == UnitKey("fp2", "src") {
		t.Error("unit keys ignore the fingerprint")
	}
	if UnitKey("fp", "src") == UnitKey("fp", "src2") {
		t.Error("unit keys ignore the source hash")
	}
	if UnitKey("fp", "src") != UnitKey("fp", "src") {
		t.Error("unit keys are not deterministic")
	}
}

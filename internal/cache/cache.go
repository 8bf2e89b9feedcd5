// Package cache holds compiled artifacts across compiles so that repeated
// submissions do not pay full analysis cost. It has two layers:
//
//  1. a unit LRU: whole compiled units keyed by an options fingerprint plus
//     the canonical source content hash (see internal/contenthash). A hit
//     returns the same immutable *Unit, including its memoized threaded
//     code, so a warm recompile costs one map lookup;
//  2. an optional on-disk artifact store (disk.go) persisted across
//     process runs.
//
// An edited source is a miss in both: it compiles cold and its unit is then
// stored. The cache stores units as opaque `any` values: internal/core owns
// the Unit type and imports this package, so the dependency points one way.
package cache

import (
	"container/list"
	"sync"

	"repro/internal/contenthash"
)

// Stats are the cache's cumulative counters. Both layers count here; the
// pipeline additionally mirrors hit/miss/eviction counts into its metrics
// registry so they surface in earthd's merged /metrics.
type Stats struct {
	Hits      int64 // unit LRU hits
	Misses    int64 // unit LRU misses
	Evictions int64 // units evicted by capacity pressure
	// DiskHits / DiskMisses / DiskCorrupt count artifact-store lookups;
	// Corrupt entries (checksum or key mismatch, truncation, bad JSON) are
	// removed and reported as misses to the caller.
	DiskHits    int64
	DiskMisses  int64
	DiskCorrupt int64
}

type unitEntry struct {
	key  string
	unit any
}

// Cache is a concurrency-safe compile cache. The zero value is not usable;
// construct with New.
type Cache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent; values are *unitEntry
	units map[string]*list.Element
	dir   string
	stats Stats
}

// DefaultCapacity bounds the unit LRU when New is given a non-positive
// capacity. Units are whole analyzed programs, so a few dozen is plenty for
// a benchmark suite or an earthd shard set.
const DefaultCapacity = 64

// New builds a cache holding at most capacity units (<=0 selects
// DefaultCapacity). dir, when non-empty, enables the on-disk artifact
// store rooted there; the directory is created lazily on first store.
func New(capacity int, dir string) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:   capacity,
		lru:   list.New(),
		units: make(map[string]*list.Element),
		dir:   dir,
	}
}

// UnitKey derives the unit-LRU key from the options fingerprint and the
// canonical source hash.
func UnitKey(fingerprint, sourceHash string) string {
	return contenthash.Parts("unit", fingerprint, sourceHash)
}

// Dir returns the artifact-store root ("" when disabled).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// LookupUnit returns the cached unit for key, if present, marking it most
// recently used.
func (c *Cache) LookupUnit(key string) (any, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.units[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*unitEntry).unit, true
}

// StoreUnit inserts (or refreshes) a unit under key and returns how many
// units were evicted to make room.
func (c *Cache) StoreUnit(key string, unit any) int {
	if c == nil || key == "" || unit == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.units[key]; ok {
		el.Value.(*unitEntry).unit = unit
		c.lru.MoveToFront(el)
		return 0
	}
	c.units[key] = c.lru.PushFront(&unitEntry{key: key, unit: unit})
	evicted := 0
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.units, back.Value.(*unitEntry).key)
		evicted++
		c.stats.Evictions++
	}
	return evicted
}

// Len reports how many units are resident.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

package sdb

import (
	"container/list"
	"sync"

	"spatialsel/internal/core"
)

// DefaultCacheSize is the estimate cache capacity of a catalog created
// without an explicit cache.
const DefaultCacheSize = 256

// CacheKey identifies one cached estimate. Table generations are part of the
// key, so replacing a table silently invalidates every cached estimate that
// involved it: the new generation makes a fresh key and the stale entries
// age out through LRU eviction. Left/Right are in canonical (sorted) order
// (see PairKey), since every estimator here is symmetric. A key holds only
// names and numbers — never a table or a summary — so a cached entry does
// not keep a replaced generation's index or histogram alive.
type CacheKey struct {
	Left, Right string
	GenL, GenR  uint64
	Method      string
	Level       int
}

// PairKey returns the canonical cache key for a ⋈ b under method at level.
func PairKey(a, b *Table, method string, level int) CacheKey {
	if a.Name > b.Name {
		a, b = b, a
	}
	return CacheKey{Left: a.Name, Right: b.Name, GenL: a.Gen, GenR: b.Gen, Method: method, Level: level}
}

// EstimateCache is a fixed-capacity LRU cache of selectivity estimates.
// Repeated estimates for an unchanged table pair are O(1) map hits instead
// of histogram scans or sample joins. It also issues table generations (see
// Table.Gen), so every catalog sharing one cache — the successive snapshots
// of one store — numbers its tables from one sequence and no key can alias
// two table versions. Safe for concurrent use.
type EstimateCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[CacheKey]*list.Element
	hits    uint64
	misses  uint64
	lastGen uint64
}

type cacheEntry struct {
	key CacheKey
	val core.Estimate
}

// NewEstimateCache returns a cache holding at most capacity entries
// (minimum 1).
func NewEstimateCache(capacity int) *EstimateCache {
	if capacity < 1 {
		capacity = 1
	}
	return &EstimateCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[CacheKey]*list.Element, capacity),
	}
}

// Get returns the cached estimate for k, recording a hit or miss.
func (c *EstimateCache) Get(k CacheKey) (core.Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return core.Estimate{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes an estimate, evicting the least recently used
// entry when over capacity.
func (c *EstimateCache) Put(k CacheKey, v core.Estimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *EstimateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns the lifetime hit and miss counts.
func (c *EstimateCache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// nextGen issues the next table generation.
func (c *EstimateCache) nextGen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastGen++
	return c.lastGen
}

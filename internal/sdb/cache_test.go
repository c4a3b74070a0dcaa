package sdb

import (
	"testing"

	"spatialsel/internal/core"
)

func TestEstimateCacheLRU(t *testing.T) {
	c := NewEstimateCache(2)
	k := func(name string) CacheKey { return CacheKey{Left: name, Right: "x", Method: "gh", Level: 7} }

	if _, ok := c.Get(k("a")); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k("a"), core.Estimate{PairCount: 1})
	c.Put(k("b"), core.Estimate{PairCount: 2})
	if v, ok := c.Get(k("a")); !ok || v.PairCount != 1 {
		t.Fatalf("a lookup: %+v %v", v, ok)
	}
	// a is now most recent; inserting c evicts b.
	c.Put(k("c"), core.Estimate{PairCount: 3})
	if _, ok := c.Get(k("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get(k("a")); !ok {
		t.Fatal("a should have survived")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}

	// Refreshing an existing key must not grow the cache.
	c.Put(k("a"), core.Estimate{PairCount: 10})
	if c.Len() != 2 {
		t.Fatalf("len after refresh = %d", c.Len())
	}
	if v, _ := c.Get(k("a")); v.PairCount != 10 {
		t.Fatalf("refresh did not take: %+v", v)
	}
}

func TestEstimateCacheGenerationsDiffer(t *testing.T) {
	c := NewEstimateCache(8)
	k1 := CacheKey{Left: "a", Right: "b", GenL: 1, GenR: 2, Method: "gh", Level: 7}
	k2 := k1
	k2.GenL = 3 // table a replaced
	c.Put(k1, core.Estimate{PairCount: 5})
	if _, ok := c.Get(k2); ok {
		t.Fatal("replaced-table key must miss")
	}
}

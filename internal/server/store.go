// Package server exposes the miniature spatial database — catalog, GH
// statistics, planner, executor — as a concurrent HTTP JSON API. The paper's
// selling point is that a GH estimate costs ~1% of the join it predicts;
// this layer puts that property behind a network endpoint that answers "how
// big is this join?" at interactive latency, with an LRU estimate cache,
// per-request timeouts threaded into the join executor as context
// cancellation, and stdlib-only metrics.
package server

import (
	"fmt"
	"sync"

	"spatialsel/internal/dataset"
	"spatialsel/internal/obs"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

// mPackedPublishes counts snapshot publications that built a packed SoA image
// on the way in (publications arriving with one prebuilt are not re-packed).
var mPackedPublishes = obs.Default.Counter("sdbd_packed_publishes_total",
	"Snapshot publications that packed the table's index for the read path.")

// Snapshot is an immutable view of the store at one point in time: a catalog
// whose table set never changes. Handlers grab a snapshot once, then run
// estimate/plan/execute on it without holding any lock — registrations
// happening meanwhile produce new snapshots and never mutate this one.
type Snapshot struct {
	Catalog *sdb.Catalog
}

// Generation returns the table's registration generation (0 if absent).
// Generations increase monotonically across the whole store, so a replaced
// table always carries a new generation — cache keys embedding generations
// go stale automatically.
func (s *Snapshot) Generation(name string) uint64 {
	t, err := s.Catalog.Table(name)
	if err != nil {
		return 0
	}
	return t.Gen
}

// Store wraps the sdb catalog with copy-on-write registration. Reads take a
// brief RLock to fetch the current snapshot pointer; writes build the new
// table outside any lock, then swap in a fresh catalog containing the old
// tables plus the change. In-flight requests keep the snapshot they started
// with. Every snapshot's catalog shares the store's estimate cache, so
// planner and endpoint estimates survive publications of unrelated tables,
// and the cache numbers the store's table generations.
type Store struct {
	mu    sync.RWMutex
	snap  *Snapshot
	level int
	cache *sdb.EstimateCache
}

// NewStore returns an empty store building statistics at the given GH level,
// with an estimate cache of sdb.DefaultCacheSize entries.
func NewStore(level int) (*Store, error) {
	return newStore(level, sdb.DefaultCacheSize)
}

// newStore is NewStore with an estimate cache of cacheSize entries (minimum
// 1); the server sizes it from Config.CacheSize.
func newStore(level, cacheSize int) (*Store, error) {
	cache := sdb.NewEstimateCache(cacheSize)
	c, err := sdb.NewCatalogWithCache(level, cache)
	if err != nil {
		return nil, err
	}
	return &Store{snap: &Snapshot{Catalog: c}, level: level, cache: cache}, nil
}

// Level returns the GH statistics level used for every table.
func (s *Store) Level() int { return s.level }

// Snapshot returns the current immutable view.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap
}

// Register builds a table from the dataset and installs it under the
// dataset's name. With replace false a duplicate name is an error; with
// replace true an existing table is swapped out atomically. The returned
// generation uniquely identifies this registration.
func (s *Store) Register(d *dataset.Dataset, replace bool) (*sdb.Table, uint64, error) {
	// Heavy work (normalize, bulk-load, histogram build) runs lock-free on a
	// scratch catalog at the store's level.
	scratch, err := sdb.NewCatalogWithCache(s.level, s.cache)
	if err != nil {
		return nil, 0, err
	}
	t, err := scratch.BuildTable(d)
	if err != nil {
		return nil, 0, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap
	if _, err := old.Catalog.Table(t.Name); err == nil && !replace {
		return nil, 0, fmt.Errorf("server: table %q already exists (set replace to swap it)", t.Name)
	}
	if err := s.installLocked(t); err != nil {
		return nil, 0, err
	}
	return t, t.Gen, nil
}

// Publish installs a pre-built table, replacing any table of the same name,
// and returns the new generation. This is the live-ingest publication path:
// the ingest layer builds the table snapshot (shared items view, cloned
// index, fresh statistics) outside any store lock, and Publish only performs
// the copy-on-write snapshot swap plus the generation bump — which is what
// invalidates the server's generation-keyed estimate cache for free.
func (s *Store) Publish(t *sdb.Table) (uint64, error) {
	// Pack the read-optimized image off-lock, before the swap, from the
	// snapshot's own immutable index. Because the image derives from the same
	// *sdb.Table that the generation bump below publishes, a packed image
	// from generation G can never appear under generation G+1's key — the
	// two travel together or not at all (pinned by TestStorePublishRepackRace).
	if t.Gen != 0 {
		return 0, fmt.Errorf("server: table %q (generation %d) is already published", t.Name, t.Gen)
	}
	if t.Packed == nil && t.Index != nil {
		t.Packed = rtree.Pack(t.Index)
		mPackedPublishes.Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.installLocked(t); err != nil {
		return 0, err
	}
	return t.Gen, nil
}

// installLocked swaps in a snapshot with t in place of any same-named table.
// Attach stamps t with the next store-wide generation; because every install
// runs under s.mu, generations increase in publication order.
func (s *Store) installLocked(t *sdb.Table) error {
	next, err := s.rebuildLocked(s.snap, t.Name)
	if err != nil {
		return err
	}
	if err := next.Catalog.Attach(t); err != nil {
		return err
	}
	s.snap = next
	return nil
}

// Drop removes a table, reporting whether it existed.
func (s *Store) Drop(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap
	if _, err := old.Catalog.Table(name); err != nil {
		return false, nil
	}
	next, err := s.rebuildLocked(old, name)
	if err != nil {
		return false, err
	}
	s.snap = next
	return true, nil
}

// rebuildLocked copies old into a fresh snapshot, omitting the named table.
// Tables are attached by pointer — they are immutable once built, so sharing
// them between snapshots is safe.
func (s *Store) rebuildLocked(old *Snapshot, omit string) (*Snapshot, error) {
	c, err := sdb.NewCatalogWithCache(s.level, s.cache)
	if err != nil {
		return nil, err
	}
	for _, name := range old.Catalog.Names() {
		if name == omit {
			continue
		}
		t, err := old.Catalog.Table(name)
		if err != nil {
			return nil, err
		}
		if err := c.Attach(t); err != nil {
			return nil, err
		}
	}
	return &Snapshot{Catalog: c}, nil
}

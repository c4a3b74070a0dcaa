package server

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
	"spatialsel/internal/sdb"
)

func TestStoreSnapshotIsolation(t *testing.T) {
	s, err := NewStore(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Register(datagen.Uniform("a", 300, 0.01, 1), false); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()

	// Register a second table: the old snapshot must not see it.
	if _, _, err := s.Register(datagen.Uniform("b", 300, 0.01, 2), false); err != nil {
		t.Fatal(err)
	}
	if names := before.Catalog.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("old snapshot mutated: %v", names)
	}
	after := s.Snapshot()
	if names := after.Catalog.Names(); len(names) != 2 {
		t.Fatalf("new snapshot missing table: %v", names)
	}

	// Replace bumps the generation; the old snapshot keeps the old table.
	genBefore := after.Generation("a")
	oldTable, err := after.Catalog.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, gen, err := s.Register(datagen.Uniform("a", 400, 0.01, 3), true); err != nil {
		t.Fatal(err)
	} else if gen <= genBefore {
		t.Fatalf("generation did not advance: %d -> %d", genBefore, gen)
	}
	replaced := s.Snapshot()
	newTable, err := replaced.Catalog.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if newTable == oldTable || newTable.Len() != 400 {
		t.Fatal("replace did not install the new table")
	}
	if stale, err := after.Catalog.Table("a"); err != nil || stale != oldTable {
		t.Fatal("old snapshot lost its table")
	}
	// A published table's generation is fixed: publishing it again is
	// refused rather than renumbering a table readers already hold.
	if _, err := s.Publish(newTable); err == nil {
		t.Fatal("re-publishing an attached table should fail")
	}

	// Duplicate without replace is rejected.
	if _, _, err := s.Register(datagen.Uniform("a", 100, 0.01, 4), false); err == nil {
		t.Fatal("duplicate register should fail")
	}

	// Drop.
	if ok, err := s.Drop("b"); err != nil || !ok {
		t.Fatalf("drop b: %v %v", ok, err)
	}
	if ok, _ := s.Drop("b"); ok {
		t.Fatal("double drop reported success")
	}
	if names := s.Snapshot().Catalog.Names(); len(names) != 1 {
		t.Fatalf("after drop: %v", names)
	}
}

// verifyPackedMirrors checks the invariant the packed-publication seam must
// hold for every snapshot: the packed image and the pointer index a table
// carries describe exactly the same item set. Publish builds the image from
// the same immutable *sdb.Table it installs under the new generation, so a
// packed image built from generation G can never surface under G+1's key —
// any divergence here means that seam broke.
func verifyPackedMirrors(tab *sdb.Table) (msg string, ok bool) {
	if tab.Packed == nil {
		return "published table has no packed image", false
	}
	if got, want := tab.Packed.Len(), tab.Index.Len(); got != want {
		return "packed image has " + strconv.Itoa(got) + " items, index " + strconv.Itoa(want), false
	}
	if rootM, okM := tab.Index.RootMBR(); okM && tab.Packed.RootMBR() != rootM {
		return "packed root MBR diverges from index", false
	}
	bad := ""
	n := 0
	tab.Packed.VisitItems(func(id int, r geom.Rect) {
		n++
		if bad == "" && (id < 0 || id >= len(tab.Data.Items) || tab.Data.Items[id] != r) {
			bad = "packed item " + strconv.Itoa(id) + " rect diverges from data"
		}
	})
	if bad != "" {
		return bad, false
	}
	if n != tab.Index.Len() {
		return "packed image visited " + strconv.Itoa(n) + " items, index holds " + strconv.Itoa(tab.Index.Len()), false
	}
	return "", true
}

// TestStorePublishRepackRace hammers the snapshot-publish seam the packed
// builder sits on: concurrent Apply batches race a Repack loop on a live
// ingest table, every commit publishing into the store, while readers pin
// generation↔packed-image consistency on each snapshot they observe. Run
// under -race.
func TestStorePublishRepackRace(t *testing.T) {
	const level = 4
	store, err := NewStore(level)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Register(datagen.Uniform("x", 300, 0.02, 7), false); err != nil {
		t.Fatal(err)
	}
	manager := ingest.NewManager(ingest.Options{
		Level:   level,
		Lookup:  func(name string) (*sdb.Table, error) { return store.Snapshot().Catalog.Table(name) },
		Publish: store.Publish,
		Repack:  ingest.RepackPolicy{MinChurn: 25, MaxChurnRatio: 0.05},
	})
	tab, err := manager.Table("x")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Bool

	// Two mutators plus a dedicated re-pack loop: publications from Apply's
	// group commit and from Repack's swap interleave freely.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				x := seed + float64(i%9)*0.05
				y := float64(i%7) * 0.07
				if _, err := tab.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(x, y, x+0.03, y+0.03)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(0.05 * float64(w+1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := tab.Repack(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: every observed snapshot must carry a packed image that
	// mirrors its index, and generations must never regress.
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(slot int) {
			defer readers.Done()
			var prevGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := store.Snapshot()
				gen := snap.Generation("x")
				if gen < prevGen {
					t.Errorf("reader %d: generation regressed %d -> %d", slot, prevGen, gen)
					failed.Store(true)
					return
				}
				prevGen = gen
				tx, err := snap.Catalog.Table("x")
				if err != nil {
					t.Errorf("reader %d: %v", slot, err)
					failed.Store(true)
					return
				}
				if msg, ok := verifyPackedMirrors(tx); !ok {
					t.Errorf("reader %d at generation %d: %s", slot, gen, msg)
					failed.Store(true)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if failed.Load() {
		return
	}
	// The final snapshot reflects all 240 inserts, packed and indexed alike.
	tx, err := store.Snapshot().Catalog.Table("x")
	if err != nil {
		t.Fatal(err)
	}
	if msg, ok := verifyPackedMirrors(tx); !ok {
		t.Fatal(msg)
	}
	if tx.Index.Len() != 300+240 {
		t.Fatalf("final table has %d items, want %d", tx.Index.Len(), 300+240)
	}
}

func TestStoreConcurrentRegisterAndRead(t *testing.T) {
	s, err := NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Register(datagen.Uniform("base", 500, 0.01, 1), false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, _, err := s.Register(datagen.Uniform("base", 500, 0.01, int64(i)), true)
				if err != nil {
					t.Error(err)
				}
				return
			}
			for j := 0; j < 20; j++ {
				snap := s.Snapshot()
				tab, err := snap.Catalog.Table("base")
				if err != nil {
					t.Error(err)
					return
				}
				if tab.Len() == 0 || tab.Index.Height() < 1 {
					t.Error("snapshot handed out a broken table")
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestProbedMutatedTableMatchesBrute runs three-way joins in which a table
// mutated through the ingest path is joined in by index probes. Its packed
// image comes from a Guttman tree after inserts and deletes, and its Data
// keeps the deleted slots, so the probe must see exactly the live items.
// Every row set, with and without a window on the probed table and with
// serial and pooled probes, must equal a brute-force join over live items.
func TestProbedMutatedTableMatchesBrute(t *testing.T) {
	const level = 5
	store, err := NewStore(level)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{
		datagen.Uniform("a", 1500, 0.015, 41),
		datagen.Uniform("b", 1500, 0.015, 42),
		datagen.Uniform("c", 2000, 0.04, 43),
	} {
		if _, _, err := store.Register(d, false); err != nil {
			t.Fatal(err)
		}
	}
	manager := ingest.NewManager(ingest.Options{
		Level:   level,
		Lookup:  func(name string) (*sdb.Table, error) { return store.Snapshot().Catalog.Table(name) },
		Publish: store.Publish,
	})
	tab, err := manager.Table("c")
	if err != nil {
		t.Fatal(err)
	}

	// The model: every slot's rect (the extent is the unit square, so raw
	// and normalized coordinates coincide) and which slots are deleted.
	c0, _ := store.Snapshot().Catalog.Table("c")
	model := append([]geom.Rect(nil), c0.Data.Items...)
	dead := map[int]bool{}
	rng := rand.New(rand.NewSource(44))
	for batch := 0; batch < 6; batch++ {
		var m ingest.Mutation
		for i := 0; i < 60; i++ {
			x, y := rng.Float64()*0.95, rng.Float64()*0.95
			m.Inserts = append(m.Inserts, geom.NewRect(x, y, x+0.04, y+0.04))
		}
		picked := map[int]bool{}
		for len(m.Deletes) < 80 {
			if id := rng.Intn(len(model)); !dead[id] && !picked[id] {
				picked[id] = true
				m.Deletes = append(m.Deletes, id)
			}
		}
		res, err := tab.Apply(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range res.IDs {
			if id != len(model)+i {
				t.Fatalf("batch %d: insert %d got id %d, want %d", batch, i, id, len(model)+i)
			}
		}
		model = append(model, m.Inserts...)
		for id := range picked {
			dead[id] = true
		}
	}

	snap := store.Snapshot()
	ta, _ := snap.Catalog.Table("a")
	tb, _ := snap.Catalog.Table("b")
	tc, _ := snap.Catalog.Table("c")
	if tc.Data.Len() != len(model) || tc.Len() != len(model)-len(dead) {
		t.Fatalf("probed table: %d slots, %d items; model has %d slots, %d live",
			tc.Data.Len(), tc.Len(), len(model), len(model)-len(dead))
	}

	for _, window := range []*geom.Rect{nil, {MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}} {
		q := sdb.Query{
			Tables:     []string{"a", "b", "c"},
			Predicates: []sdb.Predicate{{Left: "a", Right: "b"}, {Left: "b", Right: "c"}},
		}
		var want [][3]int
		for i, ra := range ta.Data.Items {
			for j, rb := range tb.Data.Items {
				if !ra.Intersects(rb) {
					continue
				}
				for k, rc := range model {
					if !dead[k] && rb.Intersects(rc) && (window == nil || rc.Intersects(*window)) {
						want = append(want, [3]int{i, j, k})
					}
				}
			}
		}
		if window != nil {
			q.Windows = map[string]geom.Rect{"c": *window}
		}
		plan, err := snap.Catalog.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Base == "c" || plan.Steps[0].Table == "c" {
			t.Fatalf("test setup: c is not probed in\n%s", plan.Explain())
		}
		if len(want) < 2*256 {
			t.Fatalf("test setup: %d rows is too few for pooled probes to split", len(want))
		}
		for _, workers := range []int{1, 4} {
			plan.Workers = workers
			res, err := plan.Execute()
			if err != nil {
				t.Fatal(err)
			}
			got := make([][3]int, res.Len())
			for i := range got {
				for j, col := range res.Columns {
					got[i][col[0]-'a'] = res.Row(i)[j]
				}
			}
			sortTriples(got)
			sortTriples(want)
			if !slices.Equal(got, want) {
				t.Fatalf("window %v, workers %d: %d rows, brute force over live items gives %d",
					window, workers, len(got), len(want))
			}
		}
	}
}

func sortTriples(rows [][3]int) {
	slices.SortFunc(rows, func(x, y [3]int) int {
		for i := range x {
			if x[i] != y[i] {
				return x[i] - y[i]
			}
		}
		return 0
	})
}

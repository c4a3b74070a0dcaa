package rtree

import (
	"slices"
	"sort"
	"testing"

	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
)

// packOf bulk-loads rects and returns both forms.
func packOf(t *testing.T, rects []geom.Rect) (*Tree, *Packed) {
	t.Helper()
	tr, err := BulkLoadSTR(ItemsFromRects(rects), WithFanout(2, 8))
	if err != nil {
		t.Fatalf("BulkLoadSTR: %v", err)
	}
	return tr, Pack(tr)
}

// TestPackMirrorsTree checks the image against its source tree on STR,
// insert-built and post-delete topologies: same size, height, root MBR and
// node count, every live item with its exact rect, and level statistics
// bit-identical to Tree.LevelStats (the admission gate and EXPLAIN read the
// packed ones in its place).
func TestPackMirrorsTree(t *testing.T) {
	rects := randRects(2000, 7)
	str, err := BulkLoadSTR(ItemsFromRects(rects), WithFanout(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	inserted := MustNew(WithFanout(2, 6))
	for i, r := range rects {
		inserted.Insert(r, i)
	}
	deleted := MustNew(WithFanout(2, 6))
	for i, r := range rects {
		deleted.Insert(r, i)
	}
	live := map[int]geom.Rect{}
	for i, r := range rects {
		if i%3 == 0 {
			if !deleted.Delete(r, i) {
				t.Fatalf("delete %d failed", i)
			}
			continue
		}
		live[i] = r
	}
	all := map[int]geom.Rect{}
	for i, r := range rects {
		all[i] = r
	}
	for _, tc := range []struct {
		name  string
		tr    *Tree
		items map[int]geom.Rect
	}{
		{"str", str, all},
		{"insert-built", inserted, all},
		{"after-deletes", deleted, live},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, p := tc.tr, Pack(tc.tr)
			if p.Len() != tr.Len() {
				t.Fatalf("Len = %d, want %d", p.Len(), tr.Len())
			}
			if p.Height() != tr.Height() {
				t.Fatalf("Height = %d, want %d", p.Height(), tr.Height())
			}
			if got, want := p.RootMBR(), tr.root.mbr(); got != want {
				t.Fatalf("RootMBR = %v, want %v", got, want)
			}
			if p.NumNodes() != tr.ComputeStats().Nodes {
				t.Fatalf("NumNodes = %d, want %d", p.NumNodes(), tr.ComputeStats().Nodes)
			}
			requireSameLevelStats(t, tr, p)

			// Every live item survives with its exact rect.
			seen := make(map[int]geom.Rect, len(tc.items))
			p.VisitItems(func(id int, r geom.Rect) {
				if _, dup := seen[id]; dup {
					t.Fatalf("item %d appears twice", id)
				}
				seen[id] = r
			})
			if len(seen) != len(tc.items) {
				t.Fatalf("VisitItems yielded %d items, want %d", len(seen), len(tc.items))
			}
			for id, r := range seen {
				if r != tc.items[id] {
					t.Fatalf("item %d rect = %v, want %v", id, r, tc.items[id])
				}
			}
		})
	}
}

// requireSameLevelStats fails unless the image's pack-time level statistics
// equal the tree walk's bit for bit.
func requireSameLevelStats(t *testing.T, tr *Tree, p *Packed) {
	t.Helper()
	got, want := p.LevelStats(), tr.LevelStats()
	if len(got) != len(want) {
		t.Fatalf("LevelStats has %d levels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("level %d: packed %+v, tree %+v", i+1, got[i], want[i])
		}
	}
}

func TestPackEmptyAndSingle(t *testing.T) {
	empty, err := New()
	if err != nil {
		t.Fatal(err)
	}
	p := Pack(empty)
	if p.Len() != 0 || p.NumNodes() != 0 || p.Height() != 0 {
		t.Fatalf("empty pack: len=%d nodes=%d height=%d", p.Len(), p.NumNodes(), p.Height())
	}
	if p.LevelStats() != nil {
		t.Fatalf("empty pack LevelStats = %v, want nil", p.LevelStats())
	}
	if got := p.Search(geom.NewRect(0, 0, 1, 1), nil); len(got) != 0 {
		t.Fatalf("empty search returned %v", got)
	}

	one, _ := New()
	one.Insert(geom.NewRect(0.3, 0.3, 0.3, 0.3), 42) // degenerate point rect
	ps := Pack(one)
	if ps.Len() != 1 {
		t.Fatalf("single pack len = %d", ps.Len())
	}
	requireSameLevelStats(t, one, ps)
	if got := ps.Search(geom.NewRect(0, 0, 1, 1), nil); len(got) != 1 || got[0] != 42 {
		t.Fatalf("single search = %v, want [42]", got)
	}
}

// TestPackedSearchMatchesTree checks the executor's probe against the
// pointer tree on STR, insert-built (2,6) and after-deletes trees. Besides
// random windows, the queries include zero-area points at item corners and
// windows that only touch an item along an edge, which pin closed-rectangle
// semantics: a shared boundary is an intersection.
func TestPackedSearchMatchesTree(t *testing.T) {
	rects := randRects(1500, 9)
	str, err := BulkLoadSTR(ItemsFromRects(rects), WithFanout(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	inserted := MustNew(WithFanout(2, 6))
	deleted := MustNew(WithFanout(2, 6))
	for i, r := range rects {
		inserted.Insert(r, i)
		deleted.Insert(r, i)
	}
	for i, r := range rects {
		if i%3 == 0 && !deleted.Delete(r, i) {
			t.Fatalf("delete %d failed", i)
		}
	}

	queries := randRects(64, 10)
	for _, r := range rects[:40] {
		queries = append(queries,
			geom.NewRect(r.MinX, r.MinY, r.MinX, r.MinY),      // point on a corner
			geom.NewRect(r.MaxX, r.MinY, r.MaxX+0.01, r.MaxY), // touches the right edge
			geom.NewRect(r.MinX, r.MaxY, r.MaxX, r.MaxY+0.01), // touches the top edge
		)
	}
	for _, tc := range []struct {
		name string
		tr   *Tree
	}{{"str", str}, {"insert-built", inserted}, {"after-deletes", deleted}} {
		t.Run(tc.name, func(t *testing.T) {
			p := Pack(tc.tr)
			for qi, q := range queries {
				want := tc.tr.Search(q, nil)
				got := p.Search(q, nil)
				sort.Ints(want)
				sort.Ints(got)
				if !sortedEqual(got, want) {
					t.Fatalf("query %d %v: packed %d hits, tree %d", qi, q, len(got), len(want))
				}
				// Query 64+3i+k touches item i; after-deletes drops every third.
				if id := (qi - 64) / 3; qi >= 64 && (tc.name != "after-deletes" || id%3 != 0) &&
					!slices.Contains(got, id) {
					t.Fatalf("query %d %v touches item %d but misses it", qi, q, id)
				}
			}
		})
	}
}

func TestPackedSearchCountsAccesses(t *testing.T) {
	rects := randRects(500, 11)
	_, p := packOf(t, rects)
	p.ResetAccesses()
	if p.Accesses() != 0 {
		t.Fatal("ResetAccesses did not zero counter")
	}
	p.Search(geom.NewRect(0, 0, 1, 1), nil)
	if p.Accesses() != int64(p.NumNodes()) {
		t.Fatalf("full-extent search touched %d nodes, want %d", p.Accesses(), p.NumNodes())
	}
}

// TestPackHilbertLeafOrder pins the read-optimized layout: within every leaf
// run, items ascend by Hilbert key of their rect (ties by id).
func TestPackHilbertLeafOrder(t *testing.T) {
	rects := clusteredRects(1200, 13)
	tr, p := packOf(t, rects)
	curveMBR := tr.root.mbr()
	if curveMBR.Area() <= 0 {
		curveMBR = curveMBR.Expand(1e-9)
	}
	curve := hilbert.MustNew(hilbert.MaxOrder, curveMBR)
	for n := 0; n < p.NumNodes(); n++ {
		if !p.leaf[n] {
			continue
		}
		s, c := int(p.start[n]), int(p.count[n])
		for i := s + 1; i < s+c; i++ {
			prev := geom.Rect{MinX: p.itemXMin[i-1], MinY: p.itemYMin[i-1], MaxX: p.itemXMax[i-1], MaxY: p.itemYMax[i-1]}
			cur := geom.Rect{MinX: p.itemXMin[i], MinY: p.itemYMin[i], MaxX: p.itemXMax[i], MaxY: p.itemYMax[i]}
			kp, kc := curve.RectIndex(prev), curve.RectIndex(cur)
			if kp > kc || (kp == kc && p.itemID[i-1] >= p.itemID[i]) {
				t.Fatalf("leaf %d: items %d,%d out of Hilbert order (keys %d,%d ids %d,%d)",
					n, i-1, i, kp, kc, p.itemID[i-1], p.itemID[i])
			}
		}
	}
}

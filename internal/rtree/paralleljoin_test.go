package rtree

// Tests of the parallel packed join (PackedJoinFuncParallelContext and
// PackedJoinCountParallel). The test names are those of the pointer-tree
// parallel join the packed kernel replaced; every case builds pointer trees,
// packs them, and checks the parallel packed kernel against the serial
// pointer join, the plane sweep and the partition join.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"spatialsel/internal/geom"
	"spatialsel/internal/partjoin"
	"spatialsel/internal/sweep"
)

// collectParallel runs the parallel packed join and returns the emitted pairs.
func collectParallel(t *testing.T, pa, pb *Packed, workers int) []JoinPair {
	t.Helper()
	var out []JoinPair
	if err := PackedJoinFuncParallelContext(context.Background(), pa, pb, workers, func(a, b int) {
		out = append(out, JoinPair{A: a, B: b})
	}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

func pairSet(ps []JoinPair) map[JoinPair]int {
	m := make(map[JoinPair]int, len(ps))
	for _, p := range ps {
		m[p]++
	}
	return m
}

// joinWorkerCounts are the pool sizes the differential tests run: auto (0),
// serial (1), and small, odd, and oversubscribed pools.
var joinWorkerCounts = []int{0, 1, 2, 3, 8, 16}

// TestJoinFuncParallelContextCrossValidated checks the parallel packed join's
// pair set against three independent exact joins — the serial R-tree join,
// the plane sweep, and the partition-based join — on uniform, clustered, and
// degenerate inputs.
func TestJoinFuncParallelContextCrossValidated(t *testing.T) {
	type gen func(n int, seed int64) []geom.Rect
	allOverlap := func(n int, seed int64) []geom.Rect {
		// Every rectangle covers the center: all n×m pairs intersect.
		rng := rand.New(rand.NewSource(seed))
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = geom.NewRect(0.4-rng.Float64()*0.4, 0.4-rng.Float64()*0.4,
				0.6+rng.Float64()*0.4, 0.6+rng.Float64()*0.4)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		gen    gen
		na, nb int
	}{
		{"uniform", randRects, 4000, 3000},
		{"clustered", clusteredRects, 3000, 3000},
		{"single-item", randRects, 1, 500},
		{"all-overlapping", allOverlap, 120, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := tc.gen(tc.na, 300)
			bs := tc.gen(tc.nb, 301)
			ta, pa := packOf(t, as)
			tb, pb := packOf(t, bs)
			want := pairSet(Join(ta, tb))
			if got := sweep.Count(as, bs); got != len(want) {
				t.Fatalf("sweep disagrees with serial join: %d vs %d", got, len(want))
			}
			if got := partjoin.Count(as, bs, partjoin.Config{}); got != len(want) {
				t.Fatalf("partjoin disagrees with serial join: %d vs %d", got, len(want))
			}
			for _, workers := range joinWorkerCounts {
				got := pairSet(collectParallel(t, pa, pb, workers))
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
				}
				for p, n := range want {
					if got[p] != n {
						t.Fatalf("workers=%d: pair %v emitted %d times, want %d", workers, p, got[p], n)
					}
				}
			}
		})
	}
}

func TestJoinFuncParallelContextEmptyTrees(t *testing.T) {
	empty := Pack(MustNew())
	full, _ := BulkLoadSTR(ItemsFromRects(randRects(200, 302)))
	pf := Pack(full)
	for _, pair := range [][2]*Packed{{empty, pf}, {pf, empty}, {empty, empty}} {
		if got := collectParallel(t, pair[0], pair[1], 4); len(got) != 0 {
			t.Fatalf("join with empty image emitted %d pairs", len(got))
		}
	}
}

// TestJoinFuncParallelContextDeterministic verifies the merged emission order
// is stable: repeated runs with the same worker count produce the identical
// pair sequence, not just the same set.
func TestJoinFuncParallelContextDeterministic(t *testing.T) {
	as, bs := randRects(5000, 303), randRects(4000, 304)
	ta, _ := BulkLoadSTR(ItemsFromRects(as))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs))
	pa, pb := Pack(ta), Pack(tb)
	for _, workers := range []int{2, 4} {
		first := collectParallel(t, pa, pb, workers)
		for run := 0; run < 3; run++ {
			again := collectParallel(t, pa, pb, workers)
			if len(again) != len(first) {
				t.Fatalf("workers=%d run %d: %d pairs, want %d", workers, run, len(again), len(first))
			}
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("workers=%d run %d: pair %d = %v, want %v", workers, run, i, again[i], first[i])
				}
			}
		}
	}
}

func TestJoinFuncParallelContextCancellation(t *testing.T) {
	as, bs := randRects(6000, 305), randRects(6000, 306)
	ta, _ := BulkLoadSTR(ItemsFromRects(as))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emitted := 0
	err := PackedJoinFuncParallelContext(ctx, Pack(ta), Pack(tb), 4, func(int, int) { emitted++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join returned %v", err)
	}
	if emitted != 0 {
		t.Fatalf("cancelled join emitted %d pairs", emitted)
	}
}

// TestJoinFuncParallelContextAccounting verifies a parallel run updates both
// images' node-access counters. The parallel task decomposition does not
// visit the serial node sequence (a task keeps one subtree root pinned where
// the serial join re-touches it per pair), so the counts differ, but they
// must be non-zero on both images and bounded by a small multiple of the
// serial numbers.
func TestJoinFuncParallelContextAccounting(t *testing.T) {
	as, bs := randRects(3000, 307), randRects(3000, 308)
	ta, _ := BulkLoadSTR(ItemsFromRects(as))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs))
	pa, pb := Pack(ta), Pack(tb)
	pa.ResetAccesses()
	pb.ResetAccesses()
	want := PackedJoinCount(pa, pb)
	serialA, serialB := pa.Accesses(), pb.Accesses()
	if serialA == 0 || serialB == 0 {
		t.Fatal("serial join did not count accesses")
	}
	pa.ResetAccesses()
	pb.ResetAccesses()
	if got := PackedJoinCountParallel(pa, pb, 4); got != want {
		t.Fatalf("parallel count %d, want %d", got, want)
	}
	for _, c := range []struct {
		name             string
		got, serialCount int64
	}{{"a", pa.Accesses(), serialA}, {"b", pb.Accesses(), serialB}} {
		if c.got == 0 {
			t.Fatalf("parallel join left image %s accesses at zero", c.name)
		}
		if c.got > 8*c.serialCount {
			t.Fatalf("image %s: parallel accesses %d wildly above serial %d", c.name, c.got, c.serialCount)
		}
	}
}

// TestJoinFuncParallelContextSharedTreeHammer runs parallel and serial packed
// joins and packed range searches concurrently over the same two images;
// with -race this is the read-sharing safety proof for the executor's usage
// (packed first join, packed extension probes). Every search's hit count
// must match the pointer tree's.
func TestJoinFuncParallelContextSharedTreeHammer(t *testing.T) {
	ta, pa := packOf(t, randRects(2500, 309))
	tb, pb := packOf(t, randRects(2500, 310))
	want := JoinCount(ta, tb)
	qa, qb := geom.NewRect(0.2, 0.2, 0.4, 0.4), geom.NewRect(0.6, 0.1, 0.9, 0.5)
	wantA, wantB := len(ta.Search(qa, nil)), len(tb.Search(qb, nil))

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // parallel packed joins
				for i := 0; i < 3; i++ {
					n := 0
					if err := PackedJoinFuncParallelContext(context.Background(), pa, pb, 4, func(int, int) { n++ }); err != nil {
						errs[g] = err
						return
					}
					if n != want {
						errs[g] = errors.New("parallel count mismatch under concurrency")
						return
					}
				}
			case 1: // serial packed joins on the same images
				for i := 0; i < 3; i++ {
					if PackedJoinCount(pa, pb) != want {
						errs[g] = errors.New("serial count mismatch under concurrency")
						return
					}
				}
			default: // range searches on the shared images: the executor's probes
				var buf []int
				for i := 0; i < 200; i++ {
					if buf = pa.Search(qa, buf[:0]); len(buf) != wantA {
						errs[g] = errors.New("packed search on a mismatches tree under concurrency")
						return
					}
					if buf = pb.Search(qb, buf[:0]); len(buf) != wantB {
						errs[g] = errors.New("packed search on b mismatches tree under concurrency")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestJoinCountParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		na, nb int
	}{
		{"small", 200, 150},
		{"medium", 5000, 4000},
		{"asymmetric", 8000, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ta, pa := packOf(t, randRects(tc.na, 230))
			tb, pb := packOf(t, randRects(tc.nb, 231))
			want := JoinCount(ta, tb)
			for _, workers := range joinWorkerCounts {
				if got := PackedJoinCountParallel(pa, pb, workers); got != want {
					t.Fatalf("workers=%d: %d, want %d", workers, got, want)
				}
			}
		})
	}
}

func TestJoinCountParallelInsertBuilt(t *testing.T) {
	// Insertion-built trees have different shapes (heights, fills) — the
	// packed layout and the task expansion must handle them too.
	ta, _ := BulkLoadInsert(ItemsFromRects(randRects(3000, 232)), WithFanout(2, 6))
	tb, _ := BulkLoadInsert(ItemsFromRects(randRects(2500, 233)), WithFanout(2, 6))
	pa, pb := Pack(ta), Pack(tb)
	want := JoinCount(ta, tb)
	for _, workers := range joinWorkerCounts {
		if got := PackedJoinCountParallel(pa, pb, workers); got != want {
			t.Fatalf("workers=%d: parallel %d, serial %d", workers, got, want)
		}
	}
}

func TestJoinCountParallelEdgeCases(t *testing.T) {
	empty := Pack(MustNew())
	full, _ := BulkLoadSTR(ItemsFromRects(randRects(100, 234)))
	pf := Pack(full)
	if got := PackedJoinCountParallel(empty, pf, 4); got != 0 {
		t.Fatalf("empty parallel join = %d", got)
	}
	if got := PackedJoinCountParallel(pf, empty, 4); got != 0 {
		t.Fatalf("parallel join empty = %d", got)
	}
	// Single-item images, on either side and against each other.
	one := MustNew()
	one.Insert(randRects(1, 235)[0], 0)
	po := Pack(one)
	for _, c := range []struct {
		name string
		a, b *Tree
		pa   *Packed
		pb   *Packed
	}{
		{"one×full", one, full, po, pf},
		{"full×one", full, one, pf, po},
		{"one×one", one, one, po, po},
	} {
		want := JoinCount(c.a, c.b)
		if got := PackedJoinCount(c.pa, c.pb); got != want {
			t.Fatalf("%s: serial packed = %d, want %d", c.name, got, want)
		}
		if got := PackedJoinCountParallel(c.pa, c.pb, 4); got != want {
			t.Fatalf("%s: parallel packed = %d, want %d", c.name, got, want)
		}
	}
}

package ingest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
)

func TestShouldRepackQuietTableBelowChurnFloor(t *testing.T) {
	p := RepackPolicy{}.withDefaults()
	quiet := Degradation{Churn: 1, ChurnRatio: 0.001, Overlap: 0.01}
	if p.ShouldRepack(quiet) {
		t.Fatal("quiet table repacked below the churn floor")
	}
}

// TestRepackPublishesUnchangedStats pins the invariant that makes a re-pack a
// tree-only operation: the GH statistics are maintained exactly under every
// mutation, so the generation a re-pack publishes carries the very summary
// the last batch published, and every estimate against it is bit-identical.
func TestRepackPublishesUnchangedStats(t *testing.T) {
	const level = 5
	store := &fakeStore{}
	base := buildTable(t, "t", 300, level, 41)
	tab, err := OpenTable(base, level, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		m := Mutation{Inserts: []geom.Rect{rawRect(rng), rawRect(rng)}}
		if round%4 == 3 {
			m.Deletes = []int{round}
		}
		if _, err := tab.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	gh := histogram.MustGH(level)
	probeRaw, err := gh.Build(datagen.Cluster("probe", 800, 0.4, 0.6, 0.2, 0.02, 43))
	if err != nil {
		t.Fatal(err)
	}
	probe := probeRaw.(*histogram.GHSummary)

	before := store.snapshot()
	genBefore := store.gen
	estBefore, err := gh.Estimate(before.Stats, probe)
	if err != nil {
		t.Fatal(err)
	}
	if ran, err := tab.Repack(); !ran || err != nil {
		t.Fatalf("Repack = (%v, %v)", ran, err)
	}
	after := store.snapshot()
	if store.gen != genBefore+1 || after == before {
		t.Fatalf("re-pack published generation %d (snapshot changed %v), want %d", store.gen, after != before, genBefore+1)
	}
	if !reflect.DeepEqual(after.Stats, before.Stats) {
		t.Fatal("re-pack changed the published GH statistics")
	}
	estAfter, err := gh.Estimate(after.Stats, probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(estAfter.PairCount) != math.Float64bits(estBefore.PairCount) ||
		math.Float64bits(estAfter.Selectivity) != math.Float64bits(estBefore.Selectivity) {
		t.Fatalf("estimate moved across re-pack: %v → %v", estBefore, estAfter)
	}
}

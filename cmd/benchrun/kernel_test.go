package main

import (
	"runtime"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/sdb"
)

func kernelTables(t *testing.T) (*sdb.Table, *sdb.Table) {
	t.Helper()
	c, err := sdb.NewCatalogAtLevel(5)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := c.Create(datagen.Uniform("l", 1500, 0.01, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Create(datagen.Uniform("r", 1500, 0.01, 2))
	if err != nil {
		t.Fatal(err)
	}
	return tl, tr
}

// TestMeasureJoinKernelSingleWorker is the regression test for the committed
// "workers: 1, speedup: 1.59" snapshot: with a one-worker pool the parallel
// entry point falls back to the identical serial kernel, so the report must
// record the resolved worker count, omit the parallel timings entirely, and
// say why. The old runJoinKernel failed all three: it echoed the knob, timed
// the fallback as if it were a parallel run, and published the warm-up bias
// between the two loops as a speedup.
func TestMeasureJoinKernelSingleWorker(t *testing.T) {
	tl, tr := kernelTables(t)
	k, err := measureJoinKernel(tl, tr, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k.Workers != 1 {
		t.Errorf("Workers = %d, want resolved count 1", k.Workers)
	}
	if k.PackedParallelMicros != nil {
		t.Errorf("PackedParallelMicros present at one worker: %+v", *k.PackedParallelMicros)
	}
	if k.ParallelNote == "" {
		t.Error("ParallelNote missing: the omission must be documented in the snapshot")
	}
	if !k.CountsMatch || k.Pairs <= 0 {
		t.Errorf("count gate: pairs=%d match=%v", k.Pairs, k.CountsMatch)
	}
	if !(k.PackedSpeedup > 0) {
		t.Errorf("PackedSpeedup = %g, want > 0 (packed kernel always measured)", k.PackedSpeedup)
	}
}

// TestMeasureJoinKernelMultiWorker: with a real pool the packed parallel
// timings appear and the note does not.
func TestMeasureJoinKernelMultiWorker(t *testing.T) {
	tl, tr := kernelTables(t)
	k, err := measureJoinKernel(tl, tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k.Workers != 2 {
		t.Errorf("Workers = %d, want 2", k.Workers)
	}
	if k.PackedParallelMicros == nil {
		t.Fatal("packed parallel timings missing at two workers")
	}
	if pp := *k.PackedParallelMicros; pp.Max <= 0 || pp.P50 > pp.P99 || pp.P99 > pp.Max {
		t.Errorf("packed parallel percentiles malformed: %+v", pp)
	}
	if !k.CountsMatch || k.Pairs <= 0 {
		t.Errorf("count gate: pairs=%d match=%v", k.Pairs, k.CountsMatch)
	}
	if k.ParallelNote != "" {
		t.Errorf("ParallelNote = %q, want empty when parallel timings are published", k.ParallelNote)
	}
}

// TestMeasureJoinKernelResolvesAuto: the auto knob (≤ 0) must be recorded as
// the GOMAXPROCS it resolves to, never as the raw 0.
func TestMeasureJoinKernelResolvesAuto(t *testing.T) {
	tl, tr := kernelTables(t)
	k, err := measureJoinKernel(tl, tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); k.Workers != want {
		t.Errorf("Workers = %d, want resolved GOMAXPROCS %d", k.Workers, want)
	}
	if k.Workers == 0 {
		t.Error("Workers recorded as the raw knob value 0")
	}
}

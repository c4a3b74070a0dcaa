package main

import (
	"fmt"
	"time"

	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

// JoinKernelReport compares the R-tree join kernels on the workload's index
// pair — the raw pair enumeration, with no row materialization or filters, so
// the speedups isolate the filter phase. The run fails if any kernel
// disagrees on the pair count.
type JoinKernelReport struct {
	// Workers is the pool size the parallel phase actually ran with: the
	// -workers knob after the ≤0 → GOMAXPROCS mapping the kernels apply
	// themselves. Earlier snapshots recorded the raw knob here while the
	// kernels resolved it independently, which is how a "1-worker 1.59×
	// speedup" got committed.
	Workers      int         `json:"workers"`
	SerialMicros Percentiles `json:"serial_micros"`

	// PackedMicros times the packed SoA kernel serially; PackedSpeedup is
	// serial p50 over packed p50 — the layout win, independent of the pool.
	PackedMicros  Percentiles `json:"packed_micros"`
	PackedSpeedup float64     `json:"packed_speedup"`

	// PackedParallelMicros is present only when Workers > 1. With one worker
	// the parallel entry point falls back to the identical serial kernel, so
	// its timings would only measure run-to-run noise and cache warm-up bias;
	// ParallelNote documents the omission in the snapshot itself.
	PackedParallelMicros *Percentiles `json:"packed_parallel_micros,omitempty"`
	ParallelNote         string       `json:"parallel_note,omitempty"`

	Pairs       int  `json:"pairs"`
	CountsMatch bool `json:"counts_match"`
}

// measureJoinKernel times the serial pointer join and the packed join kernels
// on the same index pair and verifies they agree on the exact pair count —
// the correctness gate that makes the speedup numbers trustworthy.
//
// Two measurement rules fix the old runJoinKernel's bias: every kernel gets
// one untimed warm-up run before the clock starts (the old code timed the
// serial kernel first and cold, gifting the later kernels its cache
// footprint), and the timed iterations interleave the kernels round-robin so
// slow drift (thermal, noisy neighbors) hits all of them equally.
func measureJoinKernel(a, b *sdb.Table, workers, iters int) (JoinKernelReport, error) {
	resolved := rtree.ResolveJoinWorkers(workers)
	pa, pb := a.Packed, b.Packed

	type kernel struct {
		name  string
		run   func() int
		times []int64
		pairs int
	}
	kernels := []*kernel{
		{name: "serial", run: func() int { return rtree.JoinCount(a.Index, b.Index) }},
		{name: "packed", run: func() int { return rtree.PackedJoinCount(pa, pb) }},
	}
	if resolved > 1 {
		kernels = append(kernels,
			&kernel{name: "packed_parallel", run: func() int { return rtree.PackedJoinCountParallel(pa, pb, resolved) }})
	}

	for _, k := range kernels {
		k.pairs = k.run() // warm-up, untimed; also the count each kernel must agree on
	}
	for i := 0; i < iters; i++ {
		for _, k := range kernels {
			start := time.Now()
			n := k.run()
			k.times = append(k.times, time.Since(start).Microseconds())
			if n != k.pairs {
				return JoinKernelReport{}, fmt.Errorf("%s kernel unstable: %d pairs, then %d", k.name, k.pairs, n)
			}
		}
	}

	rep := JoinKernelReport{
		Workers:      resolved,
		SerialMicros: percentiles(kernels[0].times),
		PackedMicros: percentiles(kernels[1].times),
		Pairs:        kernels[0].pairs,
		CountsMatch:  true,
	}
	for _, k := range kernels[1:] {
		if k.pairs != rep.Pairs {
			rep.CountsMatch = false
			return rep, fmt.Errorf("%s kernel counted %d pairs, serial %d", k.name, k.pairs, rep.Pairs)
		}
	}
	if p := rep.PackedMicros.P50; p > 0 {
		rep.PackedSpeedup = float64(rep.SerialMicros.P50) / float64(p)
	}
	if resolved > 1 {
		ppar := percentiles(kernels[2].times)
		rep.PackedParallelMicros = &ppar
	} else {
		rep.ParallelNote = "single-worker pool falls back to the serial kernel; parallel timings omitted"
	}
	return rep, nil
}

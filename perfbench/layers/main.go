// Command layers times the public functions of sdbd's layers in process, on
// the tables of one benchmark run, and prints the medians as one JSON object.
// perfbench runs it after a traced run; it is not meant to be run by hand.
//
//	layers -data DIR -pair a,b -tmp DIR [-batches FILE]
//
// Without -batches the ingest timings read 0: the workload posts no batches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/ingest"
	"spatialsel/internal/iomodel"
	"spatialsel/internal/resilience"
	"spatialsel/internal/sdb"
	"spatialsel/internal/server"
)

// budget bounds the wall time spent timing each layer; every layer is timed
// at least minReps times.
const (
	budget  = time.Second
	minReps = 5
)

// sink keeps the compiler from discarding timed results.
var sink any

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// ackedBatch is one batch the benchmark's writer had acknowledged, as
// perfbench records it.
type ackedBatch struct {
	Insert [][4]float64 `json:"insert"`
	Delete []int        `json:"delete"`
	IDs    []int        `json:"ids"`
}

func run() error {
	data := flag.String("data", "", "directory of the run's .sds tables")
	pair := flag.String("pair", "", "the workload's 2-way query as left,right")
	tmp := flag.String("tmp", "", "directory for the replayed WALs, removed on exit")
	batchesFile := flag.String("batches", "", "JSON file of acknowledged batches to replay on the left table")
	flag.Parse()
	names := strings.Split(*pair, ",")
	if *data == "" || *tmp == "" || len(names) != 2 {
		return fmt.Errorf("-data, -tmp and -pair left,right are required")
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(*tmp)

	level := sdb.StatisticsLevel
	store, err := server.NewStore(level)
	if err != nil {
		return err
	}
	var tabs [2]*sdb.Table
	for i, n := range names {
		d, err := dataset.LoadFile(filepath.Join(*data, n+".sds"))
		if err != nil {
			return err
		}
		d.Name = n
		if tabs[i], _, err = store.Register(d, false); err != nil {
			return err
		}
	}
	a, b := tabs[0], tabs[1]
	out := map[string]float64{}

	// The calls handleQuery makes to price a query for admission.
	ctrl := resilience.NewController(resilience.AdmissionPolicy{})
	ctrl.Calibrate(1)
	out["resilience.admit_us"] = micros(timeMedian(func() {
		units := iomodel.JoinAccesses(a.Index.LevelStats(), b.Index.LevelStats())
		sink = ctrl.PredictCost(units)
	}))
	out["rtree.clone_ms"] = millis(timeMedian(func() { sink = a.Index.Clone() }))
	gh := histogram.MustGH(level)
	out["histogram.gh_estimate_us"] = micros(timeMedian(func() { sink, _ = gh.Estimate(a.Stats, b.Stats) }))

	// One page of the 2-way query's response, as sdbd encodes it for limit 100.
	page := server.QueryResponse{Columns: names, TotalRows: 100_000, Truncated: true, EstRows: 98_765.4321}
	for r := 0; r < 100; r++ {
		page.Rows = append(page.Rows, []int{(r * 7919) % a.Len(), (r * 104729) % b.Len()})
	}
	out["server.encode_us"] = micros(timeMedian(func() { sink, _ = json.Marshal(page) }))

	for _, k := range []string{"ingest.apply_ms", "ingest.wal_ms", "ingest.publish_ms"} {
		out[k] = 0
	}
	if *batchesFile != "" {
		body, err := os.ReadFile(*batchesFile)
		if err != nil {
			return err
		}
		var batches []ackedBatch
		if err := json.Unmarshal(body, &batches); err != nil {
			return err
		}
		if err := replay(store, a, batches, *tmp, out); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(out)
}

// replay applies the run's batch sequence to a copy of the live table three
// ways, each within the time budget: through ingest.Table.Apply (WAL append,
// apply, fsync, snapshot and publish), through a bare WAL (Append plus
// Sync), and as server.Store.Publish of a fresh snapshot (which packs it).
func replay(store *server.Store, live *sdb.Table, batches []ackedBatch, tmp string, out map[string]float64) error {
	if len(batches) == 0 {
		return fmt.Errorf("replay: no batches")
	}
	level := store.Level()
	tab, err := ingest.OpenTable(live, level, filepath.Join(tmp, "apply.wal"), store.Publish)
	if err != nil {
		return err
	}
	defer tab.Close()
	var apply []time.Duration
	start := time.Now()
	for _, bt := range batches {
		m := ingest.Mutation{Deletes: bt.Delete}
		for _, r := range bt.Insert {
			m.Inserts = append(m.Inserts, geom.NewRect(r[0], r[1], r[2], r[3]))
		}
		t := time.Now()
		if _, err := tab.Apply(m); err != nil {
			return fmt.Errorf("replay apply: %w", err)
		}
		apply = append(apply, time.Since(t))
		if len(apply) >= minReps && time.Since(start) > budget {
			break
		}
	}
	out["ingest.apply_ms"] = millis(medianOf(apply))

	wal, err := ingest.CreateWAL(filepath.Join(tmp, "bare.wal"), ingest.Checkpoint{RawExtent: live.RawExtent, Items: live.Data.Items})
	if err != nil {
		return err
	}
	defer wal.Close()
	var walT []time.Duration
	start = time.Now()
	for i, bt := range batches {
		seq := uint64(i + 1)
		wb := ingest.Batch{Seq: seq, Deletes: bt.Delete}
		for j, r := range bt.Insert {
			wb.Inserts = append(wb.Inserts, ingest.Insert{ID: bt.IDs[j], Rect: geom.NewRect(r[0], r[1], r[2], r[3])})
		}
		t := time.Now()
		if err := wal.Append(wb); err != nil {
			return err
		}
		if err := wal.Sync(seq); err != nil {
			return err
		}
		walT = append(walT, time.Since(t))
		if len(walT) >= minReps && time.Since(start) > budget {
			break
		}
	}
	out["ingest.wal_ms"] = millis(medianOf(walT))

	out["ingest.publish_ms"] = millis(timeMedianPrepared(func() func() {
		snap := &sdb.Table{Name: live.Name, Data: live.Data, Index: live.Index.Clone(), Stats: live.Stats, RawExtent: live.RawExtent}
		return func() { sink, _ = store.Publish(snap) }
	}))
	return nil
}

// timeMedian runs fn until the budget is spent (at least minReps times)
// and returns the median duration.
func timeMedian(fn func()) time.Duration {
	return timeMedianPrepared(func() func() { return fn })
}

// timeMedianPrepared is timeMedian for work that needs fresh, untimed
// preparation before each timed call.
func timeMedianPrepared(prepare func() func()) time.Duration {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < minReps || (time.Since(start) < budget && len(ds) < 100_000) {
		fn := prepare()
		t := time.Now()
		fn()
		ds = append(ds, time.Since(t))
	}
	return medianOf(ds)
}

func medianOf(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

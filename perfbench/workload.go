package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/sweep"
)

// join names a query's tables and predicates. A 2-way join has one
// predicate; the 3-way joins are chains whose middle table is shared.
type join struct {
	tables []string
	preds  [][2]string
}

// workload is one traffic mix against one set of preloaded tables.
type workload struct {
	name string
	why  string
	// params describe the inputs for the result file's provenance.
	params map[string]any
	// tables generates the preloaded tables from the seed; each becomes
	// <name>.sds and sdbd names the table after the file.
	tables func(seed int64) []*dataset.Dataset
	pair   join  // the 2-way query, also priced by the admission layer timing
	chain  *join // the 3-way query, nil when the mix has none
	// block is one round of read operations; every read client repeats it,
	// shuffled per round by the seed.
	block   []string
	readers int
	writer  bool // one more client posts ingest batches to the live table
	setups  int  // sdbd launches per run; setup_s is their median
	warm    int  // warm-up repetitions of each read operation
	// ungated says why the workload is left out of BENCHMARK.json's
	// workloads, if it is.
	ungated string
}

// Batch shape of the ingest-live writer.
const (
	batchInserts = 8
	batchDeletes = 4
	liveSize     = 0.005 // max insert width and height, as the live table's
)

var workloads = map[string]*workload{
	"serve-small": {
		name: "serve-small",
		why: "three 2,000-item tables: every request costs well under a millisecond, so HTTP/JSON, " +
			"admission pricing, planning and the planner's repeat GH estimate dominate",
		params: map[string]any{"items": []int{2000, 2000, 2000}, "limit": 100, "clients": 2,
			"block": "q2 x3, q3, est2 x2, est3, explain"},
		tables: func(seed int64) []*dataset.Dataset {
			s := seed * 100
			return []*dataset.Dataset{
				datagen.Uniform("u", 2000, 0.005, s+1),
				datagen.PolylineTrace("p", 2000, 50, 0.004, s+2),
				datagen.Cluster("c", 2000, 0.4, 0.6, 0.1, 0.005, s+3),
			}
		},
		pair:    join{tables: []string{"u", "p"}, preds: [][2]string{{"u", "p"}}},
		chain:   &join{tables: []string{"u", "p", "c"}, preds: [][2]string{{"u", "p"}, {"p", "c"}}},
		block:   []string{"q2", "q2", "q2", "q3", "est2", "est2", "est3", "explain"},
		readers: 2,
		setups:  9,
		warm:    20,
	},
	"serve-paper": {
		name: "serve-paper",
		why: "the paper's TS-TCB and SCRC-SURA-SPG at its cardinalities: query time is the join kernel, " +
			"row materialisation and probes; the admission limiter refuses many second-client queries",
		params: map[string]any{"items": map[string]int{"ts": datagen.CardTS, "tcb": datagen.CardTCB,
			"scrc": datagen.CardSCRC, "sura": datagen.CardSURA, "spg": datagen.CardSPG},
			"limit": 100, "clients": 2, "block": "q2 x3, q3, est2 x8, est3 x8",
			"tables": "datagen paper stand-ins at scale 1, mirrored and reordered by the seed"},
		// The paper's datasets are fixed, so the tables are its stand-ins at
		// their own generator seeds (TS⋈TCB is 1,274,575 pairs). The seed
		// applies one symmetry of the unit square to every table and shuffles
		// each table's item order: the files, item IDs and trees differ from
		// seed to seed while the join work stays the paper's.
		tables: func(seed int64) []*dataset.Dataset {
			ds := []*dataset.Dataset{datagen.TS(1), datagen.TCB(1), datagen.SCRC(1), datagen.SURA(1), datagen.SPG(1)}
			rng := rand.New(rand.NewSource(seed))
			sym := rng.Intn(8)
			for _, d := range ds {
				d.Name = strings.ToLower(d.Name)
				reorient(d, sym, rng)
			}
			return ds
		},
		pair:  join{tables: []string{"ts", "tcb"}, preds: [][2]string{{"ts", "tcb"}}},
		chain: &join{tables: []string{"scrc", "sura", "spg"}, preds: [][2]string{{"scrc", "sura"}, {"sura", "spg"}}},
		block: []string{"q2", "q2", "q2", "q3",
			"est2", "est2", "est2", "est2", "est2", "est2", "est2", "est2",
			"est3", "est3", "est3", "est3", "est3", "est3", "est3", "est3"},
		readers: 2,
		setups:  3,
		warm:    3,
		ungated: "left out of BENCHMARK.json's workloads: on a shared 2-vCPU host its memory-bound joins " +
			"swing 15-40% from run to run (the same seed gave a 3-way p50 of 451 and 791 ms), " +
			"wider than any bound the benchmark may set",
	},
	"ingest-live": {
		name: "ingest-live",
		why: "a WAL-backed 20,000-item live table takes 8-insert/4-delete batches while live-probe reads " +
			"run beside them: every batch clones and re-packs the table, and reads miss the estimate cache",
		params: map[string]any{"items": map[string]int{"live": 20000, "probe": 20000, "cover": 1},
			"batch_inserts": batchInserts, "batch_deletes": batchDeletes, "limit": 100,
			"clients": 2, "block": "q2 x2, est2"},
		tables: func(seed int64) []*dataset.Dataset {
			s := seed * 100
			return []*dataset.Dataset{
				datagen.Uniform("live", 20000, liveSize, s+1),
				datagen.Uniform("probe", 20000, liveSize, s+2),
				// One item covering the extent: live⋈cover counts live items,
				// which the durability check compares with its model.
				dataset.New("cover", geom.UnitSquare, []geom.Rect{geom.UnitSquare}),
			}
		},
		pair:    join{tables: []string{"live", "probe"}, preds: [][2]string{{"live", "probe"}}},
		block:   []string{"q2", "q2", "est2"},
		readers: 1,
		writer:  true,
		setups:  9,
		warm:    5,
	},
}

// reorient maps d onto itself by symmetry sym of the unit square (bit 2
// swaps the axes, bits 0 and 1 mirror x and y) and shuffles its item order.
func reorient(d *dataset.Dataset, sym int, rng *rand.Rand) {
	if d.Extent != geom.UnitSquare {
		panic("reorient: " + d.Name + " does not span the unit square") // datagen output always does
	}
	for i, r := range d.Items {
		if sym&4 != 0 {
			r = geom.NewRect(r.MinY, r.MinX, r.MaxY, r.MaxX)
		}
		if sym&1 != 0 {
			r = geom.NewRect(1-r.MaxX, r.MinY, 1-r.MinX, r.MaxY)
		}
		if sym&2 != 0 {
			r = geom.NewRect(r.MinX, 1-r.MaxY, r.MaxX, 1-r.MinY)
		}
		d.Items[i] = r
	}
	rng.Shuffle(len(d.Items), func(i, j int) { d.Items[i], d.Items[j] = d.Items[j], d.Items[i] })
}

// workloadNames lists every workload; BENCHMARK.json names all but the
// ungated one.
var workloadNames = []string{"serve-small", "serve-paper", "ingest-live"}

// op is one HTTP request of the mix.
type op struct {
	label string // q2, q3, est2, est3, explain, batch
	kind  string // query, estimate, explain, batch
	path  string
	body  []byte
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request shapes are marshalled
	}
	return b
}

// ops returns the workload's read operations by label.
func (w *workload) ops() map[string]op {
	q := func(j join) []byte {
		return mustJSON(map[string]any{"tables": j.tables, "predicates": j.preds, "limit": 100})
	}
	m := map[string]op{
		"q2":   {label: "q2", kind: "query", path: "/v1/query", body: q(w.pair)},
		"est2": {label: "est2", kind: "estimate", path: "/v1/estimate", body: mustJSON(map[string]string{"left": w.pair.tables[0], "right": w.pair.tables[1]})},
	}
	if c := w.chain; c != nil {
		spec := mustJSON(map[string]any{"tables": c.tables, "predicates": c.preds})
		m["q3"] = op{label: "q3", kind: "query", path: "/v1/query", body: q(*c)}
		m["est3"] = op{label: "est3", kind: "estimate", path: "/v1/estimate", body: spec}
		m["explain"] = op{label: "explain", kind: "explain", path: "/v1/explain", body: spec}
	}
	return m
}

// sequence returns client id's endless read sequence: the block repeated,
// each round shuffled by a generator seeded from the run seed and the client.
func (w *workload) sequence(seed int64, id int) func() op {
	ops := w.ops()
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	var round []string
	return func() op {
		if len(round) == 0 {
			round = append(round, w.block...)
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		o := ops[round[0]]
		round = round[1:]
		return o
	}
}

// reference holds the exact answers the run checks sdbd against, computed
// off the clock with the plane sweep over the tables normalised the way sdbd
// normalises them.
type reference struct {
	pair  int // rows of the 2-way query
	chain int // rows of the 3-way query, 0 without one
}

// rows returns the exact row count behind a read operation's label.
func (r reference) rows(label string) int {
	if label == "q3" || label == "est3" {
		return r.chain
	}
	return r.pair
}

func computeReference(w *workload, tabs []*dataset.Dataset) (reference, error) {
	norm := map[string][]geom.Rect{}
	for _, d := range tabs {
		norm[d.Name] = d.Normalize().Items
	}
	var ref reference
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ref.pair = sweep.Count(norm[w.pair.tables[0]], norm[w.pair.tables[1]])
	}()
	if c := w.chain; c != nil {
		ref.chain = chainCount(norm[c.preds[0][0]], norm[c.preds[0][1]], norm[c.preds[1][1]])
	}
	wg.Wait()
	// The 3-way result may be empty on the small tables; the 2-way join never
	// is, and an empty one means the tables were not generated as intended.
	if ref.pair == 0 {
		return ref, fmt.Errorf("reference: empty 2-way join %v", w.pair.tables)
	}
	return ref, nil
}

// chainCount is the row count of a⋈b⋈c with b shared: the two sweep pair
// sets joined on b, so each b item contributes degA(b)·degC(b) rows.
func chainCount(a, b, c []geom.Rect) int {
	degA := make([]int, len(b))
	sweep.JoinFunc(a, b, func(_, j int) { degA[j]++ })
	total := 0
	sweep.JoinFunc(b, c, func(j, _ int) { total += degA[j] })
	return total
}

// insertRects draws the writer's insert rectangles, in the live table's
// coordinate space, from the writer's own generator.
func insertRects(rng *rand.Rand) [][4]float64 {
	out := make([][4]float64, batchInserts)
	for i := range out {
		w, h := rng.Float64()*liveSize, rng.Float64()*liveSize
		x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
		out[i] = [4]float64{x, y, x + w, y + h}
	}
	return out
}

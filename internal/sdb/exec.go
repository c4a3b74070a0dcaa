package sdb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
	"spatialsel/internal/rtree"
)

// Engine-level executor counters.
var (
	mExecQueries = obs.Default.Counter("sdb_exec_queries_total",
		"Plans executed.")
	mExecRows = obs.Default.Counter("sdb_exec_rows_total",
		"Result rows materialized by the executor, summed over operators.")
	mExecProbeRows = obs.Default.Counter("sdb_exec_probe_rows_total",
		"Index probes issued by extension steps.")
)

// relError is the paper's estimation error |est − actual| / actual; an
// actual of zero reports the estimate itself (the error against 1), keeping
// the value finite for empty joins.
func relError(est, actual float64) float64 {
	den := actual
	if den <= 0 {
		den = 1
	}
	e := est - actual
	if e < 0 {
		e = -e
	}
	return e / den
}

// annotateOperator stamps an operator span with its cardinalities: the
// planner's estimate, the observed row count, and the resulting relative
// error — the per-operator numbers EXPLAIN ANALYZE reports.
func annotateOperator(sp *obs.Span, estRows float64, rows int) {
	if sp == nil {
		return
	}
	sp.Set("est_rows", estRows)
	sp.Set("rows", float64(rows))
	sp.Set("rel_error", relError(estRows, float64(rows)))
}

// Result is a materialized join result: one column of item indices per
// table, in Columns order. Rows sit back to back in IDs, len(Columns) ids
// per row; Row(i)[j] indexes into the Columns[j] table's Data.Items.
type Result struct {
	Columns []string
	IDs     []int
}

// Len returns the number of result rows.
func (r *Result) Len() int {
	if len(r.Columns) == 0 {
		return 0
	}
	return len(r.IDs) / len(r.Columns)
}

// Row returns row i as a view into IDs.
func (r *Result) Row(i int) []int {
	w := len(r.Columns)
	return r.IDs[i*w : (i+1)*w : (i+1)*w]
}

// Execute runs the plan and materializes the result. The first join runs as
// a synchronized join of the two tables' packed R-tree images; every
// subsequent table is joined in by probing its packed image with the
// rectangle of each row's connecting item, verifying any additional
// predicates directly. The packed image is the only index the executor reads.
func (p *Plan) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// cancelRowBatch is how many probe rows the executor processes between
// context polls in the extension steps.
const cancelRowBatch = 256

// Crossover sizes below which the auto (Workers == 0) executor stays serial:
// goroutine + merge overhead beats the win on small inputs (measured with
// cmd/benchrun's serial-vs-parallel comparison).
const (
	parallelJoinMinItems = 4096 // summed tree cardinalities, first join
	parallelProbeMinRows = 2048 // intermediate rows, extension steps
)

// resolveWorkers maps the plan's Workers knob onto an effective pool size for
// a work item of the given size. Explicit values are honored (1 = serial);
// auto (≤ 0) selects GOMAXPROCS above the crossover and serial below it.
func resolveWorkers(workers, size, crossover int) int {
	if workers == 1 {
		return 1
	}
	if workers > 1 {
		return workers
	}
	if size < crossover {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// column is one result column resolved for execution: its table, its window
// filter, and, for an extension step, the earlier columns its predicates
// test against — drive supplies the probe rectangle, every candidate must
// also intersect the items of the verify columns.
type column struct {
	tab    *Table
	window *geom.Rect
	drive  int
	verify []int
}

// keeps reports whether item id passes the column's window filter.
func (c *column) keeps(id int) bool {
	return c.window == nil || c.tab.Data.Items[id].Intersects(*c.window)
}

// columns resolves the plan's column layout — base table first, then each
// step's table — against the catalog once, so nothing inside the join or the
// probe loops looks up a table, a window or a predicate.
func (p *Plan) columns() ([]string, []column, error) {
	names := []string{p.Base}
	for _, s := range p.Steps {
		names = append(names, s.Table)
	}
	cols := make([]column, len(names))
	for j, name := range names {
		tab, err := p.catalog.Table(name)
		if err != nil {
			return nil, nil, err
		}
		cols[j].tab = tab
		if w, ok := p.query.Windows[name]; ok {
			cols[j].window = &w
		}
	}
	// The first join pairs columns 0 and 1 itself; every later column probes.
	for j := 2; j < len(cols); j++ {
		for i, pred := range p.Steps[j-1].Against {
			other := pred.Left
			if other == names[j] {
				other = pred.Right
			}
			oc := slices.Index(names[:j], other)
			if oc < 0 {
				return nil, nil, fmt.Errorf("sdb: internal: predicate %s references unjoined table", pred)
			}
			if i == 0 {
				cols[j].drive = oc
			} else {
				cols[j].verify = append(cols[j].verify, oc)
			}
		}
	}
	return names, cols, nil
}

// ExecuteContext is Execute with cancellation: the context is threaded into
// the R-tree join (polled per node-visit batch) and polled per row batch
// during the index-probe steps, so a cancelled or timed-out context aborts a
// large join promptly with the context's error. Tables, windows and
// predicate columns are resolved before any traversal, so a plan over a
// dropped table fails up front.
func (p *Plan) ExecuteContext(ctx context.Context) (*Result, error) {
	mExecQueries.Inc()

	// When the caller installed a trace (EXPLAIN ANALYZE), every operator
	// below records into a child span; otherwise the spans are nil and free.
	ctx, execSp := obs.StartSpan(ctx, "execute")
	defer execSp.End()

	names, cols, err := p.columns()
	if err != nil {
		return nil, err
	}

	// First join via synchronized traversal of the packed images.
	first := p.Steps[0]
	a, b := &cols[0], &cols[1]
	var ids []int
	jctx, joinSp := obs.StartSpan(ctx, "join "+p.Base+" ⋈ "+first.Table)
	joinWorkers := resolveWorkers(p.Workers, a.tab.Len()+b.tab.Len(), parallelJoinMinItems)
	err = rtree.PackedJoinFuncParallelContext(jctx, a.tab.Packed, b.tab.Packed, joinWorkers, func(x, y int) {
		if a.keeps(x) && b.keeps(y) {
			ids = append(ids, x, y)
		}
	})
	annotateOperator(joinSp, first.EstRows, len(ids)/2)
	joinSp.End()
	mExecRows.Add(uint64(len(ids) / 2))
	if err != nil {
		return nil, err
	}

	// Extension steps: each widens every row by one column through index
	// probes, sharded across a worker pool when the intermediate result is
	// large enough.
	for j := 2; j < len(cols); j++ {
		s := p.Steps[j-1]
		_, stepSp := obs.StartSpan(ctx, "probe "+s.Table)
		probes := len(ids) / j
		w := resolveWorkers(p.Workers, probes, parallelProbeMinRows)
		if ids, err = extend(ctx, ids, cols[:j+1], w); err != nil {
			return nil, err
		}
		rows := len(ids) / (j + 1)
		annotateOperator(stepSp, s.EstRows, rows)
		stepSp.Set("probe_rows", float64(probes))
		stepSp.End()
		mExecRows.Add(uint64(rows))
		mExecProbeRows.Add(uint64(probes))
	}
	return &Result{Columns: names, IDs: ids}, nil
}

// extend joins the last of cols into every row of ids, whose rows hold one
// id for each of the other columns, and returns the widened rows. Each row
// probes the new column's packed image with its drive item; a candidate
// survives the column's window and verify predicates. Rows are split into
// contiguous chunks: one worker extends a single chunk inline, w > 1 workers
// claim ~4 chunks each through an atomic cursor. Chunks extend into private
// buffers that are concatenated in chunk order, so the output row order is
// deterministic — identical across runs, though pool sizes may order rows
// differently. The context is polled every cancelRowBatch rows of a chunk;
// the first error by chunk order wins and stops the pool.
func extend(ctx context.Context, ids []int, cols []column, w int) ([]int, error) {
	width := len(cols) - 1
	c := &cols[width]
	drive := cols[c.drive].tab.Data.Items
	n := len(ids) / width
	chunk := n
	if w > 1 {
		chunk = (n + w*4 - 1) / (w * 4)
	}
	chunk = max(chunk, cancelRowBatch)
	nChunks := (n + chunk - 1) / chunk
	out := make([][]int, nChunks)
	errs := make([]error, nChunks)
	var cursor atomic.Int64
	var failed atomic.Bool
	work := func() {
		var buf []int // each worker owns its search buffer
		for !failed.Load() {
			ci := int(cursor.Add(1) - 1)
			if ci >= nChunks {
				return
			}
			var dst []int
			for r := ci * chunk; r < min((ci+1)*chunk, n); r++ {
				if (r-ci*chunk)%cancelRowBatch == 0 {
					if errs[ci] = ctx.Err(); errs[ci] != nil {
						failed.Store(true)
						return
					}
				}
				row := ids[r*width : (r+1)*width]
				buf = c.tab.Packed.Search(drive[row[c.drive]], buf[:0])
			cand:
				for _, id := range buf {
					if !c.keeps(id) {
						continue
					}
					item := c.tab.Data.Items[id]
					for _, v := range c.verify {
						if !item.Intersects(cols[v].tab.Data.Items[row[v]]) {
							continue cand
						}
					}
					dst = append(append(dst, row...), id)
				}
			}
			out[ci] = dst
		}
	}
	if w <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if nChunks == 1 {
		return out[0], nil
	}
	return slices.Concat(out...), nil
}

// Count plans and executes in one call, returning only the result
// cardinality — the number selectivity estimation approximates.
func (c *Catalog) Count(q Query) (int, error) {
	plan, err := c.Plan(q)
	if err != nil {
		return 0, err
	}
	res, err := plan.Execute()
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}

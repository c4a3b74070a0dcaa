package sdb

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spatialsel/internal/geom"
)

// Predicate is a spatial intersection join between two tables.
type Predicate struct {
	Left, Right string
}

// String implements fmt.Stringer.
func (p Predicate) String() string { return p.Left + " ⋈ " + p.Right }

// Query is a multi-way spatial intersection join over catalog tables, with
// optional per-table window filters.
type Query struct {
	Tables     []string
	Predicates []Predicate
	// Windows restricts a table to items intersecting the given rectangle
	// (in normalized unit-square coordinates) before joining.
	Windows map[string]geom.Rect
}

// Step is one join in a left-deep plan: the table joined in and the
// predicates (against already-joined tables) it must satisfy.
type Step struct {
	Table   string
	Against []Predicate
	EstRows float64 // estimated cardinality after this step
}

// Plan is an ordered execution strategy for a Query.
type Plan struct {
	query   Query
	Base    string // first table scanned
	Steps   []Step
	EstCost float64 // Σ estimated intermediate cardinalities
	catalog *Catalog

	// Workers sets the executor's parallelism for the first R-tree join and
	// the extension-step index probes: 0 (auto) uses GOMAXPROCS workers when
	// the inputs are large enough to benefit and serial execution otherwise;
	// 1 forces serial execution; values > 1 force that pool size.
	Workers int
}

// Explain renders the plan with its estimates, optimizer-style.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan (est. cost %.0f rows):\n", p.EstCost)
	fmt.Fprintf(&b, "  scan %s", p.Base)
	if w, ok := p.query.Windows[p.Base]; ok {
		fmt.Fprintf(&b, " window %v", w)
	}
	b.WriteString("\n")
	for _, s := range p.Steps {
		preds := make([]string, len(s.Against))
		for i, pr := range s.Against {
			preds[i] = pr.String()
		}
		fmt.Fprintf(&b, "  join %s on %s", s.Table, strings.Join(preds, " and "))
		if w, ok := p.query.Windows[s.Table]; ok {
			fmt.Fprintf(&b, " window %v", w)
		}
		fmt.Fprintf(&b, "  (est. %.0f rows)\n", s.EstRows)
	}
	return b.String()
}

// validate checks the query's structural soundness against the catalog.
func (c *Catalog) validate(q Query) error {
	if len(q.Tables) < 2 {
		return fmt.Errorf("sdb: query needs at least two tables")
	}
	seen := map[string]bool{}
	for _, t := range q.Tables {
		if seen[t] {
			return fmt.Errorf("sdb: table %q listed twice (self joins need aliased copies)", t)
		}
		seen[t] = true
		if _, err := c.Table(t); err != nil {
			return err
		}
	}
	if len(q.Predicates) == 0 {
		return fmt.Errorf("sdb: query has no join predicates (Cartesian products are not supported)")
	}
	for _, p := range q.Predicates {
		if !seen[p.Left] || !seen[p.Right] {
			return fmt.Errorf("sdb: predicate %s references a table outside the query", p)
		}
		if p.Left == p.Right {
			return fmt.Errorf("sdb: predicate %s joins a table with itself", p)
		}
	}
	for t, w := range q.Windows {
		if !seen[t] {
			return fmt.Errorf("sdb: window on table %q outside the query", t)
		}
		if !w.Valid() {
			return fmt.Errorf("sdb: invalid window %v on %q", w, t)
		}
	}
	// Connectivity: the predicate graph must span all tables.
	adj := map[string][]string{}
	for _, p := range q.Predicates {
		adj[p.Left] = append(adj[p.Left], p.Right)
		adj[p.Right] = append(adj[p.Right], p.Left)
	}
	visited := map[string]bool{q.Tables[0]: true}
	stack := []string{q.Tables[0]}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[t] {
			if !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	if len(visited) != len(q.Tables) {
		return fmt.Errorf("sdb: join graph is disconnected")
	}
	return nil
}

// effectiveCard returns a table's planner cardinality: its size, reduced by
// the estimated selectivity of its window filter if one is set.
func (c *Catalog) effectiveCard(q Query, name string) (float64, error) {
	t, err := c.Table(name)
	if err != nil {
		return 0, err
	}
	n := float64(t.Len())
	if w, ok := q.Windows[name]; ok {
		est := t.Stats.EstimateRange(w)
		if est < n {
			n = est
		}
	}
	if n < 1 {
		n = 1 // avoid zero cardinalities destabilizing the cost model
	}
	return n, nil
}

// selectivity returns the planner's selectivity for one predicate: the
// memoized GH pair estimate, floored so the cost model stays strictly
// positive. The query has been validated, so both tables exist.
func (c *Catalog) selectivity(p Predicate) (float64, error) {
	ta, _ := c.Table(p.Left)
	tb, _ := c.Table(p.Right)
	est, _, err := c.PairEstimate(ta, tb)
	if err != nil {
		return 0, err
	}
	if est.Selectivity <= 0 {
		return 1e-12, nil
	}
	return est.Selectivity, nil
}

// Plan chooses a left-deep join order for q by greedy cost minimization:
// start with the predicate whose estimated join result is smallest, then
// repeatedly join in the connected table that keeps the intermediate result
// smallest. Selectivities are the catalog's memoized GH pair estimates
// (PairEstimate), so planning over unchanged tables scans no histogram;
// multiple predicates joining the same table multiply (independence
// assumption, as in System R).
func (c *Catalog) Plan(q Query) (*Plan, error) {
	if err := c.validate(q); err != nil {
		return nil, err
	}
	// Pairwise selectivities per predicate.
	var err error
	sel := make(map[Predicate]float64, len(q.Predicates))
	card := make(map[string]float64, len(q.Tables))
	for _, t := range q.Tables {
		if card[t], err = c.effectiveCard(q, t); err != nil {
			return nil, err
		}
	}
	for _, p := range q.Predicates {
		if sel[p], err = c.selectivity(p); err != nil {
			return nil, err
		}
	}

	// Greedy start: cheapest first join.
	best := q.Predicates[0]
	bestSize := math.Inf(1)
	for _, p := range q.Predicates {
		if size := card[p.Left] * card[p.Right] * sel[p]; size < bestSize {
			best, bestSize = p, size
		}
	}
	joined := map[string]bool{best.Left: true, best.Right: true}
	plan := &Plan{
		query:   q,
		Base:    best.Left,
		catalog: c,
		Steps: []Step{{
			Table:   best.Right,
			Against: []Predicate{best},
			EstRows: bestSize,
		}},
	}
	cost := bestSize
	rows := bestSize

	// Greedy extension until every table is joined.
	for len(joined) < len(q.Tables) {
		type candidate struct {
			table string
			preds []Predicate
			size  float64
		}
		var bestCand *candidate
		for _, t := range q.Tables {
			if joined[t] {
				continue
			}
			var preds []Predicate
			factor := 1.0
			for _, p := range q.Predicates {
				switch {
				case p.Left == t && joined[p.Right], p.Right == t && joined[p.Left]:
					preds = append(preds, p)
					factor *= sel[p]
				}
			}
			if len(preds) == 0 {
				continue // not yet connected
			}
			// System-R style independence estimate: each predicate scales
			// the Cartesian growth by its selectivity.
			size := rows * card[t] * factor
			if bestCand == nil || size < bestCand.size {
				bestCand = &candidate{table: t, preds: preds, size: size}
			}
		}
		if bestCand == nil {
			return nil, fmt.Errorf("sdb: internal: connected query became disconnected")
		}
		sort.Slice(bestCand.preds, func(i, j int) bool {
			return bestCand.preds[i].String() < bestCand.preds[j].String()
		})
		joined[bestCand.table] = true
		rows = bestCand.size
		cost += rows
		plan.Steps = append(plan.Steps, Step{
			Table:   bestCand.table,
			Against: bestCand.preds,
			EstRows: rows,
		})
	}
	plan.EstCost = cost
	return plan, nil
}

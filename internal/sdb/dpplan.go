package sdb

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxDPTables bounds the exhaustive planner's input size; 2^12 subsets keep
// planning in microseconds.
const MaxDPTables = 12

// PlanDP chooses a join order by dynamic programming over connected table
// subsets (System R restricted to left-deep plans): for every subset it
// keeps the cheapest way to reach it, where cost is the sum of estimated
// intermediate cardinalities — the same cost model as the greedy Plan.
// PlanDP is optimal under that model; Plan is its fast approximation. For
// queries over more than MaxDPTables tables use Plan.
func (c *Catalog) PlanDP(q Query) (*Plan, error) {
	if err := c.validate(q); err != nil {
		return nil, err
	}
	if len(q.Tables) > MaxDPTables {
		return nil, fmt.Errorf("sdb: PlanDP supports at most %d tables (have %d); use Plan", MaxDPTables, len(q.Tables))
	}
	var err error
	n := len(q.Tables)
	idx := make(map[string]int, n)
	for i, t := range q.Tables {
		idx[t] = i
	}
	card := make([]float64, n)
	for i, t := range q.Tables {
		if card[i], err = c.effectiveCard(q, t); err != nil {
			return nil, err
		}
	}
	// Selectivity matrix: product of predicate selectivities per table pair
	// (usually a single predicate).
	sel := make([][]float64, n)
	for i := range sel {
		sel[i] = make([]float64, n)
		for j := range sel[i] {
			sel[i][j] = 1
		}
	}
	for _, p := range q.Predicates {
		s, err := c.selectivity(p)
		if err != nil {
			return nil, err
		}
		i, j := idx[p.Left], idx[p.Right]
		sel[i][j] *= s
		sel[j][i] *= s
	}
	connected := func(i, j int) bool { return sel[i][j] != 1 }

	// DP state per subset: cheapest (cost, rows) and the join order that
	// achieves it.
	type state struct {
		cost, rows float64
		order      []int // table indices in join order
	}
	full := (1 << n) - 1
	states := make(map[int]state, 1<<n)

	// Seed with every connected pair.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !connected(i, j) {
				continue
			}
			rows := card[i] * card[j] * sel[i][j]
			mask := 1<<i | 1<<j
			if st, ok := states[mask]; !ok || rows < st.cost {
				states[mask] = state{cost: rows, rows: rows, order: []int{i, j}}
			}
		}
	}
	// Expand subsets in increasing population count.
	masks := make([]int, 0, len(states))
	for m := range states {
		masks = append(masks, m)
	}
	sort.Ints(masks)
	for popcnt := 2; popcnt < n; popcnt++ {
		var next []int
		for _, m := range masks {
			if bits.OnesCount(uint(m)) != popcnt {
				continue
			}
			st := states[m]
			for t := 0; t < n; t++ {
				if m&(1<<t) != 0 {
					continue
				}
				factor := 1.0
				joinedToAny := false
				for u := 0; u < n; u++ {
					if m&(1<<u) != 0 && connected(t, u) {
						factor *= sel[t][u]
						joinedToAny = true
					}
				}
				if !joinedToAny {
					continue
				}
				rows := st.rows * card[t] * factor
				cost := st.cost + rows
				nm := m | 1<<t
				if prev, ok := states[nm]; !ok || cost < prev.cost {
					order := make([]int, len(st.order)+1)
					copy(order, st.order)
					order[len(st.order)] = t
					states[nm] = state{cost: cost, rows: rows, order: order}
					next = append(next, nm)
				}
			}
		}
		masks = append(masks, next...)
	}
	best, ok := states[full]
	if !ok {
		return nil, fmt.Errorf("sdb: internal: no plan covers all tables")
	}

	// Materialize the plan in greedy Plan's format.
	plan := &Plan{query: q, catalog: c, Base: q.Tables[best.order[0]]}
	joined := map[string]bool{plan.Base: true}
	rows := math.NaN()
	for step, ti := range best.order[1:] {
		tname := q.Tables[ti]
		var preds []Predicate
		for _, p := range q.Predicates {
			if (p.Left == tname && joined[p.Right]) || (p.Right == tname && joined[p.Left]) {
				preds = append(preds, p)
			}
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i].String() < preds[j].String() })
		// Recompute rows along the chosen order for the step annotations.
		if step == 0 {
			rows = card[idx[plan.Base]] * card[ti] * sel[idx[plan.Base]][ti]
		} else {
			// Multiply selectivities in sorted-name order: float products
			// round differently per order, and map iteration would make the
			// step's EstRows (and EXPLAIN output) vary run to run.
			us := make([]string, 0, len(joined))
			for u := range joined {
				us = append(us, u)
			}
			sort.Strings(us)
			factor := 1.0
			for _, u := range us {
				if connected(ti, idx[u]) {
					factor *= sel[ti][idx[u]]
				}
			}
			rows = rows * card[ti] * factor
		}
		joined[tname] = true
		plan.Steps = append(plan.Steps, Step{Table: tname, Against: preds, EstRows: rows})
	}
	plan.EstCost = best.cost
	return plan, nil
}

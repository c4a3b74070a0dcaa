package histogram

import (
	"fmt"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// GH is the Geometric Histogram technique, the paper's main contribution
// (§3.2.2, "Revised GH"). Per grid cell it maintains the four Table-2
// parameters for each dataset:
//
//	C — number of MBR corner points falling within the cell;
//	O — Σ over MBRs of (area of the MBR's intersection with the cell)/(cell area);
//	H — Σ over horizontal MBR edges of (length of the edge inside the cell)/(cell width);
//	V — Σ over vertical MBR edges of (length of the edge inside the cell)/(cell height).
//
// Estimation counts expected rectangle-intersection points per cell
// (Eqn. 5) — corner-in-rectangle events contribute C1·O2 + C2·O1 and
// edge-crossing events contribute H1·V2 + H2·V1, both under a
// uniform-within-cell assumption — and divides the total by four, because
// every intersecting pair produces exactly four intersection points.
type GH struct {
	grid Grid
}

// NewGH returns a revised-GH technique at gridding level h ∈ [0, MaxLevel].
func NewGH(level int) (*GH, error) {
	g, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	return &GH{grid: g}, nil
}

// MustGH is NewGH for static levels; it panics on error.
func MustGH(level int) *GH {
	g, err := NewGH(level)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements core.Technique.
func (g *GH) Name() string { return fmt.Sprintf("GH(h=%d)", g.grid.Level()) }

// Level returns the gridding level.
func (g *GH) Level() int { return g.grid.Level() }

// ghCell carries the Table-2 parameters.
type ghCell struct {
	C float64 // corner points in the cell
	O float64 // Σ intersection-area ratios
	H float64 // Σ horizontal-edge length ratios
	V float64 // Σ vertical-edge length ratios
}

// GHSummary is the GH histogram file for one dataset.
type GHSummary struct {
	name  string
	n     int
	level int
	cells []ghCell
}

// DatasetName implements core.Summary.
func (s *GHSummary) DatasetName() string { return s.name }

// ItemCount implements core.Summary.
func (s *GHSummary) ItemCount() int { return s.n }

// SizeBytes implements core.Summary: four float64 parameters per cell plus a
// small header — half of PH's per-cell cost, as the paper notes.
func (s *GHSummary) SizeBytes() int64 { return int64(len(s.cells))*32 + 24 }

// Level returns the summary's gridding level.
func (s *GHSummary) Level() int { return s.level }

// Build implements core.Technique: one pass over the (normalized) dataset
// accumulating C, O, H and V.
func (g *GH) Build(d *dataset.Dataset) (core.Summary, error) {
	start := time.Now()
	nd := d.Normalize()
	grid := g.grid
	cells := make([]ghCell, grid.Cells())
	accumulateGH(grid, nd.Items, cells)
	recordBuild("gh", start, d.Len())
	return &GHSummary{name: d.Name, n: d.Len(), level: grid.Level(), cells: cells}, nil
}

// accumulateGH adds every item's contributions to cells. Corner points each
// land in exactly one cell (degenerate rectangles contribute coincident
// corners — the correct limit behaviour, since a point "intersecting" a
// rectangle is all four of its corners doing so); area ratios accumulate per
// overlapped cell; each horizontal edge lives in one cell row with its
// x-extent possibly spanning many columns, and symmetrically for vertical
// edges. The per-item arithmetic is shared with the incremental GHBuilder.
func accumulateGH(grid Grid, items []geom.Rect, cells []ghCell) {
	for _, r := range items {
		applyGHItem(grid, r, cells, +1)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Estimate implements core.Technique (Eqn. 5): expected intersection points
// per cell, summed and divided by four.
func (g *GH) Estimate(a, b core.Summary) (core.Estimate, error) {
	sa, ok := a.(*GHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	sb, ok := b.(*GHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	if sa.level != g.grid.Level() || sb.level != g.grid.Level() {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	// Each cell's four terms are summed as two mirrored pairs, and every
	// product is rounded on its own (the float64 conversions forbid fused
	// multiply-adds), so swapping a and b only swaps the operands of
	// commutative operations: Estimate(a, b) and Estimate(b, a) agree bit
	// for bit, which the name-ordered estimate cache relies on.
	var ip float64
	for idx := range sa.cells {
		ca, cb := &sa.cells[idx], &sb.cells[idx]
		ip += (float64(ca.C*cb.O) + float64(cb.C*ca.O)) + (float64(ca.H*cb.V) + float64(cb.H*ca.V))
	}
	recordEstimate("gh", len(sa.cells))
	return core.NewEstimate(ip/4, sa.n, sb.n), nil
}

// BasicGH is the unrefined Geometric Histogram of §3.2.1: it keeps integer
// *counts* per cell — corners (C), intersecting MBRs (I), horizontal edges
// passing through (H), vertical edges passing through (V) — and estimates
// intersection points with Eqn. 4:
//
//	N = Σ (C1·I2 + I1·C2 + V1·H2 + H1·V2)
//
// Basic GH over-counts whenever a cell holds items that do not actually
// interact (false counting) and under- or over-counts around cell-spanning
// geometry (Figure 4); the revised GH fixes both via fractional parameters.
// It is retained for the ablation comparing the two.
type BasicGH struct {
	grid Grid
}

// NewBasicGH returns a basic-GH technique at gridding level h.
func NewBasicGH(level int) (*BasicGH, error) {
	g, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	return &BasicGH{grid: g}, nil
}

// MustBasicGH is NewBasicGH for static levels; it panics on error.
func MustBasicGH(level int) *BasicGH {
	g, err := NewBasicGH(level)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements core.Technique.
func (g *BasicGH) Name() string { return fmt.Sprintf("BasicGH(h=%d)", g.grid.Level()) }

// Level returns the gridding level.
func (g *BasicGH) Level() int { return g.grid.Level() }

// basicCell carries the §3.2.1 per-cell counts.
type basicCell struct {
	C float64 // corners in the cell
	I float64 // MBRs intersecting the cell
	H float64 // horizontal edges passing through the cell
	V float64 // vertical edges passing through the cell
}

// BasicGHSummary is the basic-GH histogram file for one dataset.
type BasicGHSummary struct {
	name  string
	n     int
	level int
	cells []basicCell
}

// DatasetName implements core.Summary.
func (s *BasicGHSummary) DatasetName() string { return s.name }

// ItemCount implements core.Summary.
func (s *BasicGHSummary) ItemCount() int { return s.n }

// SizeBytes implements core.Summary.
func (s *BasicGHSummary) SizeBytes() int64 { return int64(len(s.cells))*32 + 24 }

// Build implements core.Technique.
func (g *BasicGH) Build(d *dataset.Dataset) (core.Summary, error) {
	start := time.Now()
	defer func() { recordBuild("basicgh", start, d.Len()) }()
	nd := d.Normalize()
	grid := g.grid
	cells := make([]basicCell, grid.Cells())
	for _, r := range nd.Items {
		for _, p := range r.Corners() {
			i, j := grid.CellOf(p.X, p.Y)
			cells[grid.CellIndex(i, j)].C++
		}
		grid.VisitCells(r, func(i, j int, inter geom.Rect) {
			cells[grid.CellIndex(i, j)].I++
		})
		for _, y := range [2]float64{r.MinY, r.MaxY} {
			i0, j := grid.CellOf(r.MinX, y)
			i1, _ := grid.CellOf(r.MaxX, y)
			for i := i0; i <= i1; i++ {
				cell := grid.CellRect(i, j)
				if minf(r.MaxX, cell.MaxX) > maxf(r.MinX, cell.MinX) {
					cells[grid.CellIndex(i, j)].H++
				}
			}
		}
		for _, x := range [2]float64{r.MinX, r.MaxX} {
			i, j0 := grid.CellOf(x, r.MinY)
			_, j1 := grid.CellOf(x, r.MaxY)
			for j := j0; j <= j1; j++ {
				cell := grid.CellRect(i, j)
				if minf(r.MaxY, cell.MaxY) > maxf(r.MinY, cell.MinY) {
					cells[grid.CellIndex(i, j)].V++
				}
			}
		}
	}
	return &BasicGHSummary{name: d.Name, n: d.Len(), level: grid.Level(), cells: cells}, nil
}

// Estimate implements core.Technique (Eqn. 4).
func (g *BasicGH) Estimate(a, b core.Summary) (core.Estimate, error) {
	sa, ok := a.(*BasicGHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	sb, ok := b.(*BasicGHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	if sa.level != g.grid.Level() || sb.level != g.grid.Level() {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	var ip float64
	for idx := range sa.cells {
		ca, cb := &sa.cells[idx], &sb.cells[idx]
		ip += ca.C*cb.I + ca.I*cb.C + ca.V*cb.H + ca.H*cb.V
	}
	recordEstimate("basicgh", len(sa.cells))
	return core.NewEstimate(ip/4, sa.n, sb.n), nil
}

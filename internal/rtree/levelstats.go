package rtree

import "spatialsel/internal/geom"

// LevelStat summarizes one level of the tree for analytical cost models:
// how many nodes the level has and the average dimensions of their MBRs.
// Level 1 is the root; Height() is the leaf level.
type LevelStat struct {
	Level     int
	Nodes     int
	AvgWidth  float64
	AvgHeight float64
	AvgArea   float64
}

// LevelStats walks the tree and returns one entry per level, root first.
// An empty tree returns nil.
func (t *Tree) LevelStats() []LevelStat {
	if t.root == nil {
		return nil
	}
	levels := make([]levelAcc, t.height)
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		levels[depth-1].add(n.mbr())
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			walk(e.child, depth+1)
		}
	}
	walk(t.root, 1)
	return levelStats(levels)
}

// levelAcc sums one level's node MBR dimensions in visiting order.
type levelAcc struct {
	nodes            int
	sumW, sumH, sumA float64
}

func (a *levelAcc) add(m geom.Rect) {
	a.nodes++
	a.sumW += m.Width()
	a.sumH += m.Height()
	a.sumA += m.Area()
}

// levelStats turns per-level sums, root first, into averages.
func levelStats(levels []levelAcc) []LevelStat {
	out := make([]LevelStat, len(levels))
	for i, a := range levels {
		n := float64(a.nodes)
		out[i] = LevelStat{
			Level:     i + 1,
			Nodes:     a.nodes,
			AvgWidth:  a.sumW / n,
			AvgHeight: a.sumH / n,
			AvgArea:   a.sumA / n,
		}
	}
	return out
}

// RootMBR returns the root's bounding rectangle and false for an empty
// tree.
func (t *Tree) RootMBR() (geom.Rect, bool) {
	if t.root == nil {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}

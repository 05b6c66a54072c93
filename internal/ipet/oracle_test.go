package ipet

import (
	"fmt"

	"paratime/internal/cfg"
	"paratime/internal/flow"
)

// problem is one one-shot WCET computation of the tests: a graph with
// per-block costs keyed by block ID, event charges and extra path
// constraints.
type problem struct {
	G      *cfg.Graph
	Cost   map[cfg.BlockID]int
	Events []Event
	Extra  []flow.Constraint
}

// solve compiles a fresh skeleton for p and prices it once.
func solve(p *problem) (*Result, error) {
	s, err := NewSkeleton(p.G, p.Extra)
	if err != nil {
		return nil, err
	}
	return s.Solve(denseCosts(p.G, p.Cost), p.Events)
}

// denseCosts lowers a per-block cost map to the dense vector
// Skeleton.Solve consumes (block IDs equal RPO positions).
func denseCosts(g *cfg.Graph, cost map[cfg.BlockID]int) []int {
	dense := make([]int, len(g.Blocks))
	for id, c := range cost {
		dense[id] = c
	}
	return dense
}

// solveDAGLongest computes the longest entry→exit path of a loop-free
// graph by dynamic programming over the reverse post-order. It is the
// independent oracle of the tests: on loop-free programs without extra
// constraints IPET must agree exactly.
func solveDAGLongest(g *cfg.Graph, cost map[cfg.BlockID]int) (int64, error) {
	if len(g.Loops) != 0 {
		return 0, fmt.Errorf("solveDAGLongest: graph has loops")
	}
	best := map[cfg.BlockID]int64{}
	for _, b := range g.RPO() {
		base := int64(cost[b.ID])
		if b == g.Entry {
			best[b.ID] = base
			continue
		}
		max := int64(-1)
		for _, e := range b.Preds {
			if v, ok := best[e.From.ID]; ok && v > max {
				max = v
			}
		}
		if max < 0 {
			return 0, fmt.Errorf("solveDAGLongest: block %v unreachable", b)
		}
		best[b.ID] = max + base
	}
	return best[g.Exit.ID], nil
}

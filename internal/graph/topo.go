package graph

import "fmt"

// TopoSort returns the node IDs in a topological order (every edge goes
// from an earlier to a later position). Construction via Connect already
// guarantees acyclicity, but TopoSort re-verifies and reports an error
// if a cycle is somehow present (e.g. in a graph deserialized by a
// future format change), so callers can rely on the invariant.
func (g *Graph) TopoSort() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for i := range g.nodes {
		indeg[i] = g.Indegree(NodeID(i))
	}
	// Kahn's algorithm with a FIFO seeded in ID order, so the result is
	// deterministic for a given graph.
	queue := make([]NodeID, 0, len(g.nodes))
	for i := range g.nodes {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range g.Successors(n) {
			// Each distinct edge decrements once; Successors dedups, so
			// count parallel edges explicitly.
			dec := 0
			for _, e := range g.InEdges(m) {
				if e.From.Node == n {
					dec++
				}
			}
			indeg[m] -= dec
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), len(g.nodes))
	}
	return order, nil
}

// Levels computes the paper's level function: the level of a block is
// the maximum distance (in edges) between the block and any primary
// input reachable to it. Primary inputs have level 0. Nodes unreachable
// from any primary input (legal while a design is under construction)
// also get level 0, matching the code generator's treatment of
// constant-driven subtrees. The result is indexed by NodeID.
func (g *Graph) Levels() ([]int, error) {
	var s LevelScratch
	return g.LevelsWith(&s)
}

// LevelScratch is reusable storage for LevelsWith: the level table and
// the Kahn scratch. The zero value is ready to use.
type LevelScratch struct {
	lvl     []int
	pending []int
	order   []NodeID
}

// LevelsWith is Levels computed in s's storage, growing it as needed.
// The returned table aliases s and is valid until s is used again.
func (g *Graph) LevelsWith(s *LevelScratch) ([]int, error) {
	// Kahn's algorithm over the adjacency index: a node's level is
	// final once every in-edge has been relaxed, and any topological
	// order yields the same levels.
	n := len(g.nodes)
	if cap(s.lvl) < n {
		s.lvl, s.pending, s.order = make([]int, n), make([]int, n), make([]NodeID, 0, n)
	}
	lvl, pending, order := s.lvl[:n], s.pending[:n], s.order[:0]
	clear(lvl)
	for i := range g.nodes {
		if pending[i] = len(g.nodes[i].inAdj); pending[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, e := range g.nodes[u].outAdj {
			v := e.To.Node
			if l := lvl[u] + 1; l > lvl[v] {
				lvl[v] = l
			}
			if pending[v]--; pending[v] == 0 {
				order = append(order, v)
			}
		}
	}
	s.order = order
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return lvl, nil
}

// Depth returns the maximum level over all nodes (0 for an empty or
// edge-free graph).
func (g *Graph) Depth() (int, error) {
	lvl, err := g.Levels()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, l := range lvl {
		if l > max {
			max = l
		}
	}
	return max, nil
}

package graph

import "sort"

// CriticalPath returns one longest primary-input-to-sink path as a node
// sequence (the path realizing the design's depth). Empty for graphs
// with no edges. Deterministic: ties resolve toward lower node IDs.
func (g *Graph) CriticalPath() ([]NodeID, error) {
	lvl, err := g.Levels()
	if err != nil {
		return nil, err
	}
	// Find the deepest node (lowest ID among ties).
	end := InvalidNode
	best := -1
	for _, id := range g.NodeIDs() {
		if lvl[id] > best {
			best = lvl[id]
			end = id
		}
	}
	if end == InvalidNode || best == 0 {
		return nil, nil
	}
	// Walk backwards through predecessors that realize level-1 steps.
	path := []NodeID{end}
	cur := end
	for lvl[cur] > 0 {
		next := InvalidNode
		for _, p := range g.Predecessors(cur) {
			if lvl[p] == lvl[cur]-1 && (next == InvalidNode || p < next) {
				next = p
			}
		}
		if next == InvalidNode {
			break // disconnected upper levels (constant-driven subtree)
		}
		path = append(path, next)
		cur = next
	}
	// Reverse to source-to-sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// FanoutHistogram returns counts of nodes by their outdegree.
func (g *Graph) FanoutHistogram() map[int]int {
	h := map[int]int{}
	for _, id := range g.NodeIDs() {
		h[g.Outdegree(id)]++
	}
	return h
}

// SortedKeys returns the keys of an int-keyed histogram in ascending
// order (rendering helper).
func SortedKeys(h map[int]int) []int {
	out := make([]int, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

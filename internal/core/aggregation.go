package core

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// Aggregation implements the bottom-up clustering heuristic that the
// paper tried before PareDown (Section 4.2): "From a list of inner
// nodes connected to a primary input, the aggregation method repeatedly
// selects a node that fits within a programmable block as a partition."
// Clusters are grown greedily from sensor-adjacent seeds by absorbing
// neighboring unpartitioned blocks while the cluster still fits; the
// method has no look-ahead and therefore cannot exploit convergence,
// which is why the paper found it "often produced non-optimal results".
// It is retained as the baseline for ablation A2.
func Aggregation(g *graph.Graph, c Constraints) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	levels, err := g.LevelsWith(&ws.lv)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: "aggregation"}
	seeds, free := ws.partitionable(g)
	ev := &ws.ev
	ev.bind(g)
	nbScratch := ws.nb[:0]

	// Seed order: inner nodes adjacent to a primary input first (the
	// paper's "list of inner nodes connected to a primary input"), then
	// the rest; within each class, by level then ID for determinism.
	slices.SortFunc(seeds, func(a, b graph.NodeID) int {
		if sa, sb := sensorAdjacent(g, a), sensorAdjacent(g, b); sa != sb {
			if sa {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(levels[a], levels[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for _, seed := range seeds {
		if !free.Has(seed) {
			continue
		}
		// The evaluator tracks the growing cluster's I/O demand
		// incrementally: each absorption probe costs O(deg(neighbor)).
		ev.Reset()
		ev.Add(seed)
		cluster := ev.Members()
		res.FitChecks++
		if !ev.Fits(c) {
			// Even alone the block exceeds the budget (e.g. a 3-input
			// gate against a 2-input programmable block): leave it.
			continue
		}
		grown := true
		for grown {
			grown = false
			nbScratch = clusterNeighbors(g, cluster, free, nbScratch[:0])
			for _, nb := range nbScratch {
				ev.Add(nb)
				res.FitChecks++
				if ev.Fits(c) && pareAcyclicWith(g, c, res.Partitions, cluster) {
					grown = true
					break
				}
				ev.Remove(nb)
			}
		}
		if cluster.Len() >= 2 {
			res.Partitions = append(res.Partitions, cluster.Clone())
			cluster.ForEach(free.Remove)
		}
	}
	res.Uncovered = uncoveredFrom(g, res.Partitions)
	ws.nb = nbScratch
	ws.put()
	return res, nil
}

// sensorAdjacent reports whether any driver of id is a primary input.
func sensorAdjacent(g *graph.Graph, id graph.NodeID) bool {
	for _, e := range g.InEdgesView(id) {
		if g.Role(e.From.Node) == graph.RolePrimaryInput {
			return true
		}
	}
	return false
}

// clusterNeighbors appends the free inner nodes adjacent to the
// cluster to dst, in ascending ID order and each once.
func clusterNeighbors(g *graph.Graph, cluster, free graph.NodeSet, dst []graph.NodeID) []graph.NodeID {
	start := len(dst)
	cluster.ForEach(func(id graph.NodeID) {
		for _, m := range g.SuccessorsView(id) {
			if free.Has(m) && !cluster.Has(m) {
				dst = append(dst, m)
			}
		}
		for _, m := range g.PredecessorsView(id) {
			if free.Has(m) && !cluster.Has(m) {
				dst = append(dst, m)
			}
		}
	})
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

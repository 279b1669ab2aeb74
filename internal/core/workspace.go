package core

import (
	"sync"

	"repro/internal/graph"
)

// workspace holds every array one partitioning call needs: the level
// table and its Kahn scratch, the partitionable list, the block pool,
// an Evaluator, a ranker, and both exhaustive engines' searchers, the
// permanent-demand one with its pooled group records and the family
// one with its family and levels. PareDown, PareDownHetero,
// Aggregation and Exhaustive take one from workspaces at entry and
// hand it back on a normal return. So a warm process partitions
// without heap work beyond the Result itself. Three rules keep the
// reuse invisible:
//
//   - Every array a call reads is reset for that call's graph at entry
//     (sized, and the bind methods). Nothing one call computes is read
//     by the next: this is scratch reuse, not a result cache, and no
//     result depends on which workspace the pool hands out.
//   - A workspace goes back to the pool only on a normal return, never
//     from a defer. A searcher abandoned mid-branch (a cancelled
//     search, or a panic that a caller recovers) is dropped with its
//     workspace.
//   - Nothing in a workspace escapes into a Result or a TraceEvent:
//     partitions and trace candidates are clones.
type workspace struct {
	lv     graph.LevelScratch
	inner  []graph.NodeID
	blocks graph.NodeSet
	nb     []graph.NodeID // Aggregation's neighbor list
	ev     Evaluator
	rk     ranker
	s      exSearcher
	f      famSearcher
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{
		blocks: graph.NewNodeSet(),
		ev:     Evaluator{members: graph.NewNodeSet()},
		f:      famSearcher{tmp: graph.NewNodeSet()},
	}
}}

// getWorkspace takes a workspace from the pool.
func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

// put returns ws to the pool, first dropping its references to the
// call's graph, context and results so the pool pins none of them.
func (ws *workspace) put() {
	ws.ev.g = nil
	ws.rk.ev, ws.rk.levels = nil, nil
	ws.s.exSearch, ws.f.exSearch = exSearch{}, exSearch{}
	workspaces.Put(ws)
}

// partitionable lists g's partitionable nodes in ws.inner and makes
// them the block pool.
func (ws *workspace) partitionable(g *graph.Graph) (inner []graph.NodeID, blocks graph.NodeSet) {
	ws.inner = g.AppendPartitionableNodes(ws.inner[:0])
	ws.blocks.Clear()
	for _, id := range ws.inner {
		ws.blocks.Add(id)
	}
	return ws.inner, ws.blocks
}

// sized returns a zeroed slice of length n, reusing s's storage when
// it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

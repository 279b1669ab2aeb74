package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// PareDownOptions tune the heuristic; the zero value reproduces the
// paper exactly.
type PareDownOptions struct {
	// Trace, when non-nil, receives a step-by-step narration of the
	// decomposition (used by the Figure 5 example and golden tests).
	Trace func(ev TraceEvent)
	// DisableTieBreaks replaces the paper's three tie-break criteria
	// (greatest indegree, greatest outdegree, highest level) with plain
	// lowest-node-ID ordering. Used by the ablation benchmark A1.
	DisableTieBreaks bool
}

// TraceEvent is one step of the PareDown narration.
type TraceEvent struct {
	Kind      TraceKind
	Candidate graph.NodeSet // state *before* the step applies
	IO        IO            // candidate I/O at this step
	Node      graph.NodeID  // removed node (KindRemove) or n/a
	Rank      int           // rank of the removed node (KindRemove)
	Border    []RankedNode  // border ranking considered (KindRemove)
}

// TraceKind enumerates narration steps.
type TraceKind uint8

const (
	// KindCandidate announces a fresh candidate (all remaining blocks).
	KindCandidate TraceKind = iota
	// KindRemove reports the removal of the least-rank border block.
	KindRemove
	// KindAccept reports a fitting candidate with >= 2 members becoming
	// a partition.
	KindAccept
	// KindRejectSingleton reports a fitting 1-member candidate being
	// discarded (invalid by the >= 2 rule).
	KindRejectSingleton
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case KindCandidate:
		return "candidate"
	case KindRemove:
		return "remove"
	case KindAccept:
		return "accept"
	case KindRejectSingleton:
		return "reject-singleton"
	default:
		return fmt.Sprintf("tracekind(%d)", uint8(k))
	}
}

// RankedNode is a border block with its computed rank and tie-break
// keys, reported in trace events.
type RankedNode struct {
	Node      graph.NodeID
	Rank      int
	Indegree  int
	Outdegree int
	Level     int
}

// PareDown runs the decomposition heuristic of Figure 4 on the inner
// nodes of g:
//
//	blocks <- list of inner blocks
//	partitions <- empty list
//	while blocks contains elements
//	    partition <- blocks
//	    while partition contains elements
//	        if partition fits in a programmable block then
//	            if partition contains more than one block: accept it
//	            remove partition's elements from blocks
//	            break
//	        else
//	            compute ranks for border blocks in partition
//	            remove the border block with the least rank
//
// A block's rank is the net change in the candidate's combined input and
// output demand if the block were removed; ties go to the block with the
// greatest indegree, then greatest outdegree, then highest level.
func PareDown(g *graph.Graph, c Constraints, opts PareDownOptions) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	levels, err := g.LevelsWith(&ws.lv)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: "paredown"}
	_, blocks := ws.partitionable(g)
	ev := &ws.ev
	ev.bind(g)
	rk := &ws.rk
	rk.bind(ev, levels, opts.DisableTieBreaks)

	for blocks.Len() > 0 {
		// candidate <- blocks; the evaluator tracks its I/O demand and
		// the ranker its members' ranks incrementally from here on
		// (O(deg) per removal instead of a full recount per step).
		rk.reset(blocks)
		candidate := ev.Members()
		if opts.Trace != nil {
			opts.Trace(TraceEvent{Kind: KindCandidate, Candidate: candidate.Clone(), IO: ev.IO()})
		}
		for ev.Len() > 0 {
			res.FitChecks++
			if ev.Fits(c) && pareAcyclicWith(g, c, res.Partitions, candidate) {
				if ev.Len() > 1 {
					res.Partitions = append(res.Partitions, candidate.Clone())
					if opts.Trace != nil {
						opts.Trace(TraceEvent{Kind: KindAccept, Candidate: candidate.Clone(), IO: ev.IO()})
					}
				} else if opts.Trace != nil {
					opts.Trace(TraceEvent{Kind: KindRejectSingleton, Candidate: candidate.Clone(), IO: ev.IO()})
				}
				candidate.ForEach(blocks.Remove)
				break
			}
			if ev.Len() == 1 {
				// A lone block that does not fit even by itself (e.g. a
				// 3-input gate against a 2x2 budget) can never be pared
				// into a fitting candidate on this path; it stays a
				// pre-defined block. This is the "partition contains
				// zero blocks" corner of Figure 4 — without removing
				// the block from the pool the outer loop would never
				// terminate.
				if opts.Trace != nil {
					opts.Trace(TraceEvent{Kind: KindRejectSingleton, Candidate: candidate.Clone(), IO: ev.IO()})
				}
				candidate.ForEach(blocks.Remove)
				break
			}
			removed := rk.pick()
			if opts.Trace != nil {
				opts.Trace(TraceEvent{
					Kind:      KindRemove,
					Candidate: candidate.Clone(),
					IO:        ev.IO(),
					Node:      removed.Node,
					Rank:      removed.Rank,
					Border:    rk.ranked(),
				})
			}
			rk.remove(removed.Node)
		}
	}
	res.Uncovered = uncoveredFrom(g, res.Partitions)
	ws.put()
	return res, nil
}

// pareAcyclicWith guards the RequireConvex mode: accepting `candidate`
// alongside the already-accepted partitions must leave the contracted
// block graph acyclic (per-partition convexity alone does not guarantee
// this). In paper mode (RequireConvex false) it always passes.
func pareAcyclicWith(g *graph.Graph, c Constraints, accepted []graph.NodeSet, candidate graph.NodeSet) bool {
	if !c.RequireConvex || candidate.Len() < 2 {
		return true
	}
	all := append(append([]graph.NodeSet(nil), accepted...), candidate)
	ct, err := g.Contract(all)
	if err != nil {
		return false
	}
	return ct.Acyclic()
}

// rankOf computes member id's border status and, for a border block,
// its rank: the change in the candidate's combined I/O demand if id
// were removed. Against the evaluator's per-port counters the change
// is
//
//   - −1 for every external driver port all of whose edges into the
//     candidate target id (the port stops being a partition input);
//   - per output port of id: −1 if it fed outside (stops being a
//     partition output) and +1 if it fed remaining members (becomes an
//     external driver port);
//   - +1 for every other member's output port that feeds id and feeds
//     no non-member (it becomes a partition output).
//
// This matches PartitionIO(C\{id}) − PartitionIO(C) exactly (verified
// by a property test) at O(deg(id)) cost instead of O(|C| + |E|). It
// is the one rank function: pareStep calls it on every member, the
// ranker on the members a removal can affect. ports is scratch storage
// for grouping in-edges by driver port.
func rankOf(ev *Evaluator, id graph.NodeID, ports *[]srcPort) (rank int, border bool) {
	g := ev.g
	candidate := ev.Members()
	if g.Border(candidate, id) == graph.NotBorder {
		return 0, false
	}
	// Group this block's in-edges by driver port: external driver
	// ports that fed only this block lower the rank; member ports that
	// fed this block and nothing outside raise it.
	ps := (*ports)[:0]
	for _, e := range g.InEdgesView(id) {
		found := false
		for k := range ps {
			if ps[k].port == e.From {
				ps[k].cnt++
				found = true
				break
			}
		}
		if !found {
			ps = append(ps, srcPort{port: e.From, cnt: 1, internal: candidate.Has(e.From.Node)})
		}
	}
	*ports = ps
	for _, pc := range ps {
		if pc.internal {
			if ev.outLeavingCount(pc.port) == 0 {
				rank++
			}
		} else if ev.extInCount(pc.port) == pc.cnt {
			rank--
		}
	}
	// This block's own output ports (OutEdgesView is ordered by pin, so
	// each pin's edges form one contiguous run).
	oe := g.OutEdgesView(id)
	for i := 0; i < len(oe); {
		pin := oe[i].From.Pin
		intoC, ext := 0, 0
		for ; i < len(oe) && oe[i].From.Pin == pin; i++ {
			if candidate.Has(oe[i].To.Node) {
				intoC++
			} else {
				ext++
			}
		}
		if ext > 0 {
			rank-- // stops being a partition output
		}
		if intoC > 0 {
			rank++ // becomes an external driver port
		}
	}
	return rank, true
}

// srcPort groups one border block's in-edges by driver output port.
type srcPort struct {
	port     graph.Port
	cnt      int32
	internal bool // driver is a candidate member
}

// rankedLess is the removal order: least rank first; ties go to the
// greatest indegree, then greatest outdegree, then highest level, and
// finally the lowest node ID (the only tie-break with
// DisableTieBreaks). It is a total order, so the least border block
// is unique and equals the head of the sorted border.
func rankedLess(a, b *RankedNode, noTieBreaks bool) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if !noTieBreaks {
		if a.Indegree != b.Indegree {
			return a.Indegree > b.Indegree
		}
		if a.Outdegree != b.Outdegree {
			return a.Outdegree > b.Outdegree
		}
		if a.Level != b.Level {
			return a.Level > b.Level
		}
	}
	return a.Node < b.Node
}

// sortRanked orders a border list by removal priority.
func sortRanked(border []RankedNode, noTieBreaks bool) {
	sort.Slice(border, func(i, j int) bool { return rankedLess(&border[i], &border[j], noTieBreaks) })
}

// pareStep is the from-scratch reference for one pare step: it ranks
// every member of candidate with rankOf and returns the least-rank
// border block together with the whole border sorted by removal
// priority. PareDown itself picks from the ranker's cached ranks; the
// tests hold the two equal.
func pareStep(g *graph.Graph, candidate graph.NodeSet, levels []int, noTieBreaks bool) (RankedNode, []RankedNode) {
	ev := NewEvaluator(g)
	ev.AddSet(candidate)
	var ports []srcPort
	var border []RankedNode
	ids := candidate.Sorted()
	for _, id := range ids {
		if rank, ok := rankOf(ev, id, &ports); ok {
			border = append(border, rankedNode(g, levels, id, rank))
		}
	}
	if len(border) == 0 {
		return highestLevel(g, levels, ids), nil
	}
	sortRanked(border, noTieBreaks)
	return border[0], border
}

func rankedNode(g *graph.Graph, levels []int, id graph.NodeID, rank int) RankedNode {
	return RankedNode{Node: id, Rank: rank, Indegree: g.Indegree(id), Outdegree: g.Outdegree(id), Level: levels[id]}
}

// highestLevel is the pare step's fallback when no member is a border
// block: the first highest-level member. It cannot happen for a
// well-formed DAG (a minimum-level member is always input-border), but
// keeps the step deterministic.
func highestLevel(g *graph.Graph, levels []int, ids []graph.NodeID) RankedNode {
	fb := RankedNode{Node: graph.InvalidNode}
	for _, id := range ids {
		if fb.Node == graph.InvalidNode || levels[id] > fb.Level {
			fb = rankedNode(g, levels, id, 0)
		}
	}
	return fb
}

// ranker keeps the rank and border status of every member of the
// evaluator's candidate in NodeID-indexed slices, so a pare step picks
// its removal with one scan over the border blocks instead of
// re-ranking and sorting them. Removing block r changes only the ranks
// that read r's membership or a port counter r's removal changes (see
// the Evaluator invariants): those of r's drivers and r's consumers,
// and of the other consumers of each port feeding r. remove refreshes
// exactly those members. This is what keeps the 465-inner-node
// experiment of Section 5.2 fast.
type ranker struct {
	ev          *Evaluator
	noTieBreaks bool
	levels      []int
	// node[id] holds id's rank (valid while id is a border block) and
	// its static tie-break keys.
	node []RankedNode
	// border lists the candidate's border blocks in no particular
	// order; at[id] is id's index in it, or -1.
	border []graph.NodeID
	at     []int32
	ports  []srcPort
}

// bind makes rk the ranker of ev's candidate over ev's graph, reusing
// its storage.
func (rk *ranker) bind(ev *Evaluator, levels []int, noTieBreaks bool) {
	g := ev.g
	rk.ev, rk.noTieBreaks, rk.levels = ev, noTieBreaks, levels
	rk.node = sized(rk.node, g.NumNodes())
	rk.at = sized(rk.at, g.NumNodes())
	rk.border = rk.border[:0]
	for i := range rk.node {
		rk.node[i] = rankedNode(g, levels, graph.NodeID(i), 0)
		rk.at[i] = -1
	}
}

// reset makes blocks the candidate and ranks every member.
func (rk *ranker) reset(blocks graph.NodeSet) {
	for _, id := range rk.border {
		rk.at[id] = -1
	}
	rk.border = rk.border[:0]
	rk.ev.Reset()
	rk.ev.AddSet(blocks)
	blocks.ForEach(rk.refresh)
}

// refresh re-ranks id if it is a member.
func (rk *ranker) refresh(id graph.NodeID) {
	if !rk.ev.Has(id) {
		return
	}
	rank, border := rankOf(rk.ev, id, &rk.ports)
	rk.node[id].Rank = rank
	rk.setBorder(id, border)
}

func (rk *ranker) setBorder(id graph.NodeID, border bool) {
	switch i := rk.at[id]; {
	case border && i < 0:
		rk.at[id] = int32(len(rk.border))
		rk.border = append(rk.border, id)
	case !border && i >= 0:
		last := rk.border[len(rk.border)-1]
		rk.border[i] = last
		rk.at[last] = i
		rk.border = rk.border[:len(rk.border)-1]
		rk.at[id] = -1
	}
}

// remove takes r out of the candidate and re-ranks the members whose
// rank it can change.
func (rk *ranker) remove(r graph.NodeID) {
	g := rk.ev.g
	rk.ev.Remove(r)
	rk.setBorder(r, false)
	// r's drivers: their ports feeding r now feed a non-member.
	for _, id := range g.PredecessorsView(r) {
		rk.refresh(id)
	}
	// r's consumers: r's ports became external driver ports.
	for _, id := range g.SuccessorsView(r) {
		rk.refresh(id)
	}
	// The other consumers of each port feeding r: that port's extIn or
	// outLv counter changed.
	for _, in := range g.InEdgesView(r) {
		for _, e := range g.OutEdgesView(in.From.Node) {
			if e.From.Pin == in.From.Pin {
				rk.refresh(e.To.Node)
			}
		}
	}
}

// pick returns the least border block under rankedLess, or the
// highestLevel fallback when no member is a border block.
func (rk *ranker) pick() RankedNode {
	if len(rk.border) == 0 {
		return highestLevel(rk.ev.g, rk.levels, rk.ev.Members().Sorted())
	}
	best := &rk.node[rk.border[0]]
	for _, id := range rk.border[1:] {
		if n := &rk.node[id]; rankedLess(n, best, rk.noTieBreaks) {
			best = n
		}
	}
	return *best
}

// ranked returns the candidate's border sorted by removal priority, a
// fresh slice for the trace.
func (rk *ranker) ranked() []RankedNode {
	var border []RankedNode
	for _, id := range rk.border {
		border = append(border, rk.node[id])
	}
	sortRanked(border, rk.noTieBreaks)
	return border
}

package core

import (
	"fmt"
	"math/bits"
	"slices"
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
	inner, blocks := ws.partitionable(g)
	ev := &ws.ev
	ev.bind(g)
	rk := &ws.rk
	rk.bind(ev, levels, inner, opts.DisableTieBreaks)

	for blocks.Len() > 0 {
		// candidate <- blocks; the evaluator tracks its I/O demand and
		// the ranker its members' ranks incrementally from here on
		// (O(deg) per removal instead of a full recount per step).
		rk.reset(blocks)
		candidate := ev.Members()
		if opts.Trace != nil {
			opts.Trace(TraceEvent{Kind: KindCandidate, Candidate: candidate.Clone(), IO: ev.IO()})
		}
		if err := rk.pare(c, res, opts); err != nil {
			return nil, err
		}
		candidate.ForEach(blocks.Remove)
	}
	res.Uncovered = uncoveredFrom(g, res.Partitions)
	ws.put()
	return res, nil
}

// pare runs Figure 4's inner loop on the candidate rk holds: while the
// candidate does not fit it removes the least border block, and it
// accepts the fitting candidate into res when it has more than one
// member. A lone block that does not fit even by itself (e.g. a
// 3-input gate against a 2x2 budget) can never be pared into a fitting
// candidate on this path; it stays a pre-defined block. This is the
// "partition contains zero blocks" corner of Figure 4. Either way the
// candidate is decided when pare returns, and the caller takes it out
// of the block pool.
func (rk *ranker) pare(c Constraints, res *Result, opts PareDownOptions) error {
	ev := rk.ev
	candidate := ev.Members()
	for {
		res.FitChecks++
		if ev.Fits(c) && pareAcyclicWith(ev.g, c, res.Partitions, candidate) {
			if ev.Len() > 1 {
				res.Partitions = append(res.Partitions, candidate.Clone())
				if opts.Trace != nil {
					opts.Trace(TraceEvent{Kind: KindAccept, Candidate: candidate.Clone(), IO: ev.IO()})
				}
			} else if opts.Trace != nil {
				opts.Trace(TraceEvent{Kind: KindRejectSingleton, Candidate: candidate.Clone(), IO: ev.IO()})
			}
			return nil
		}
		if ev.Len() == 1 {
			if opts.Trace != nil {
				opts.Trace(TraceEvent{Kind: KindRejectSingleton, Candidate: candidate.Clone(), IO: ev.IO()})
			}
			return nil
		}
		removed, err := rk.pickMember()
		if err != nil {
			return err
		}
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
// were removed. id is a border block when it has no in-edge from a
// member or no out-edge to one (the evaluator's inMem and outMem
// counters; graph.Border is the definition). Against the evaluator's
// per-port counters the change is
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
// by a property test). It reads one counter per distinct driver port
// and two per output port of id, from the port index's static driver
// and consumer tables, so it walks no edge list. It is the one rank
// function: pareStep calls it on every member, the ranker on the
// members a removal can affect.
func rankOf(ev *Evaluator, id graph.NodeID) (rank int, border bool) {
	if ev.inMem[id] != 0 && ev.outMem[id] != 0 {
		return 0, false
	}
	for _, d := range ev.px.driversOf(id) {
		if ev.members.Has(d.node) {
			if ev.outLv[d.port] == 0 {
				rank++
			}
		} else if ev.extIn[d.port] == d.cnt {
			rank--
		}
	}
	for p := ev.px.base[id]; p < ev.px.base[id+1]; p++ {
		if ev.outLv[p] > 0 {
			rank-- // stops being a partition output
		}
		if ev.px.cons[p] > ev.outLv[p] {
			rank++ // becomes an external driver port
		}
	}
	return rank, true
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
	var border []RankedNode
	ids := candidate.Sorted()
	for _, id := range ids {
		if rank, ok := rankOf(ev, id); ok {
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
// evaluator's candidate, so a pare step picks its removal from rank
// buckets instead of re-ranking and sorting the border. Removing block
// r changes only the ranks that read r's membership or a port counter
// r's removal changes (see the Evaluator invariants): those of r's
// drivers and r's consumers, and of the other consumers of each port
// feeding r. remove refreshes exactly those members. This is what
// keeps the 465-inner-node experiment of Section 5.2 fast.
//
// The buckets are a bucket queue over rankedLess. bind sorts the
// bound nodes once by the static tie-break keys (rankedLess with equal
// ranks), and each rank owns one bitset over that order; a border
// block is one set bit in its rank's bitset. So the least border block
// is the first set bit of the lowest non-empty bucket, and reading the
// buckets in order yields the sorted border. Each distinct driver port
// of a block moves its rank by at most one, and so does each of its
// output pins, so |rank| <= span, the largest count of distinct driver
// ports plus output pins over the bound nodes: ranks -span..span index
// buckets 0..2*span.
type ranker struct {
	ev          *Evaluator
	noTieBreaks bool
	levels      []int
	// node[id] holds id's rank (valid while id is a border block) and
	// its static tie-break keys.
	node []RankedNode
	// order lists the bound nodes by the static tie-break keys; pos[id]
	// is id's index in it.
	order []graph.NodeID
	pos   []int32
	span  int
	words int // words per bucket bitset
	// bits holds the 2*span+1 bucket bitsets, words apiece, lowest rank
	// first; count[b] is the number of set bits in bucket b.
	bits  []uint64
	count []int32
	// inBorder[id] reports whether id is a border block, set in bucket
	// node[id].Rank+span.
	inBorder []bool
}

// bind makes rk the ranker of ev's candidate over ev's graph for
// candidates drawn from nodes, reusing its storage.
func (rk *ranker) bind(ev *Evaluator, levels []int, nodes []graph.NodeID, noTieBreaks bool) {
	g := ev.g
	rk.ev, rk.noTieBreaks, rk.levels = ev, noTieBreaks, levels
	rk.node = sized(rk.node, g.NumNodes())
	for i := range rk.node {
		rk.node[i] = rankedNode(g, levels, graph.NodeID(i), 0)
	}
	// Every rank is 0 here, so rankedLess compares the static keys.
	rk.order = append(rk.order[:0], nodes...)
	slices.SortFunc(rk.order, func(a, b graph.NodeID) int {
		switch {
		case a == b:
			return 0
		case rankedLess(&rk.node[a], &rk.node[b], noTieBreaks):
			return -1
		default:
			return 1
		}
	})
	rk.pos = sized(rk.pos, g.NumNodes())
	rk.span = 0
	for i, id := range rk.order {
		rk.pos[id] = int32(i)
		rk.span = max(rk.span, len(ev.px.driversOf(id))+g.NumOut(id))
	}
	rk.words = (len(rk.order) + 63) >> 6
	rk.bits = sized(rk.bits, (2*rk.span+1)*rk.words)
	rk.count = sized(rk.count, 2*rk.span+1)
	rk.inBorder = sized(rk.inBorder, g.NumNodes())
}

// reset makes blocks the candidate and ranks every member.
func (rk *ranker) reset(blocks graph.NodeSet) {
	clear(rk.bits)
	clear(rk.count)
	clear(rk.inBorder)
	rk.ev.Reset()
	rk.ev.AddSet(blocks)
	blocks.ForEach(rk.refresh)
}

// refresh re-ranks id if it is a member.
func (rk *ranker) refresh(id graph.NodeID) {
	if !rk.ev.Has(id) {
		return
	}
	rank, border := rankOf(rk.ev, id)
	rk.set(id, rank, border)
}

// set records id's rank and border status, moving its bit between
// buckets.
func (rk *ranker) set(id graph.NodeID, rank int, border bool) {
	if rk.inBorder[id] {
		rk.flip(id, -1)
	}
	rk.node[id].Rank, rk.inBorder[id] = rank, border
	if border {
		rk.flip(id, 1)
	}
}

// flip toggles id's bit in the bucket of node[id].Rank and moves the
// bucket's count by delta.
func (rk *ranker) flip(id graph.NodeID, delta int32) {
	b, at := rk.node[id].Rank+rk.span, int(rk.pos[id])
	rk.bits[b*rk.words+at>>6] ^= 1 << (at & 63)
	rk.count[b] += delta
}

// remove takes r out of the candidate and re-ranks the members whose
// rank it can change.
func (rk *ranker) remove(r graph.NodeID) {
	g := rk.ev.g
	rk.ev.Remove(r)
	rk.set(r, 0, false)
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
	for _, d := range rk.ev.px.driversOf(r) {
		pin := int(d.port - rk.ev.px.base[d.node])
		for _, e := range g.OutEdgesView(d.node) {
			if e.From.Pin == pin {
				rk.refresh(e.To.Node)
			}
		}
	}
}

// pick returns the least border block under rankedLess: the first set
// bit of the lowest non-empty bucket. With no border block it returns
// the highestLevel fallback.
func (rk *ranker) pick() RankedNode {
	for b, n := range rk.count {
		if n == 0 {
			continue
		}
		for i, w := range rk.bits[b*rk.words : (b+1)*rk.words] {
			if w != 0 {
				return rk.node[rk.order[i<<6+bits.TrailingZeros64(w)]]
			}
		}
	}
	return highestLevel(rk.ev.g, rk.levels, rk.ev.Members().Sorted())
}

// pickMember returns pick's block, or an internal error when that
// block is not in the candidate. Removing a non-member changes
// nothing, so a ranker fault that picked one would spin a pare loop
// forever; the error stops it instead.
func (rk *ranker) pickMember() (RankedNode, error) {
	r := rk.pick()
	if !rk.ev.Has(r.Node) {
		return r, fmt.Errorf("core: internal error: the pare step picked node %d, which is not in the candidate", r.Node)
	}
	return r, nil
}

// ranked returns the candidate's border sorted by removal priority, a
// fresh slice for the trace: the buckets' set bits in order.
func (rk *ranker) ranked() []RankedNode {
	var border []RankedNode
	for b, n := range rk.count {
		if n == 0 {
			continue
		}
		for i, w := range rk.bits[b*rk.words : (b+1)*rk.words] {
			for ; w != 0; w &= w - 1 {
				border = append(border, rk.node[rk.order[i<<6+bits.TrailingZeros64(w)]])
			}
		}
	}
	return border
}

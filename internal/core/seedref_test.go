package core

import (
	"sort"

	"repro/internal/graph"
)

// This file preserves the pre-v2 ("seed") implementations of the three
// partitioning algorithms as executable references. The v2 engine
// (incremental Evaluator, allocation-free fit checks, both exhaustive
// engines) must return results identical to these on every
// workload — see crosscheck_test.go — and the benchmarks in
// speed_bench_test.go measure the v2 engine against them.
//
// The references recompute candidate I/O from scratch with freshly
// allocated maps on every fit check, exactly like the original code.

// seedPartitionIO is the original map-based PartitionIO.
func seedPartitionIO(g *graph.Graph, set graph.NodeSet) IO {
	inPorts := map[graph.Port]bool{}
	outPorts := map[graph.Port]bool{}
	for _, id := range set.Sorted() {
		for _, e := range g.InEdges(id) {
			if !set.Has(e.From.Node) {
				inPorts[e.From] = true
			}
		}
		for _, e := range g.AllOutEdges(id) {
			if !set.Has(e.To.Node) {
				outPorts[e.From] = true
			}
		}
	}
	return IO{Inputs: len(inPorts), Outputs: len(outPorts)}
}

// seedFits is the original Fits.
func seedFits(g *graph.Graph, set graph.NodeSet, c Constraints) bool {
	io := seedPartitionIO(g, set)
	if io.Inputs > c.MaxInputs || io.Outputs > c.MaxOutputs {
		return false
	}
	if c.RequireConvex && !g.IsConvex(set) {
		return false
	}
	return true
}

// seedPareStep is the original pareStep: per-step port usage maps
// rebuilt from scratch, O(|candidate| + edges) per call.
func seedPareStep(g *graph.Graph, candidate graph.NodeSet, levels []int, noTieBreaks bool) (RankedNode, []RankedNode) {
	extIn := map[graph.Port]int{}
	outExt := map[graph.Port]int{}
	for _, id := range candidate.Sorted() {
		for _, e := range g.InEdges(id) {
			if !candidate.Has(e.From.Node) {
				extIn[e.From]++
			}
		}
		for _, e := range g.AllOutEdges(id) {
			if !candidate.Has(e.To.Node) {
				outExt[e.From]++
			}
		}
	}
	var border []RankedNode
	for _, id := range candidate.Sorted() {
		if g.Border(candidate, id) == graph.NotBorder {
			continue
		}
		rank := 0
		feeds := map[graph.Port]int{}
		internalSrc := map[graph.Port]bool{}
		for _, e := range g.InEdges(id) {
			if candidate.Has(e.From.Node) {
				internalSrc[e.From] = true
			} else {
				feeds[e.From]++
			}
		}
		for p, cnt := range feeds {
			if extIn[p] == cnt {
				rank--
			}
		}
		for pin := 0; pin < g.NumOut(id); pin++ {
			intoC, ext := 0, 0
			for _, e := range g.OutEdges(id, pin) {
				if candidate.Has(e.To.Node) {
					intoC++
				} else {
					ext++
				}
			}
			if ext > 0 {
				rank--
			}
			if intoC > 0 {
				rank++
			}
		}
		for p := range internalSrc {
			if outExt[p] == 0 {
				rank++
			}
		}
		border = append(border, RankedNode{
			Node:      id,
			Rank:      rank,
			Indegree:  g.Indegree(id),
			Outdegree: g.Outdegree(id),
			Level:     levels[id],
		})
	}
	if len(border) == 0 {
		var fb RankedNode
		fb.Node = graph.InvalidNode
		for _, id := range candidate.Sorted() {
			if fb.Node == graph.InvalidNode || levels[id] > fb.Level {
				fb = RankedNode{Node: id, Level: levels[id], Indegree: g.Indegree(id), Outdegree: g.Outdegree(id)}
			}
		}
		return fb, nil
	}
	sort.SliceStable(border, func(i, j int) bool {
		a, b := border[i], border[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if noTieBreaks {
			return a.Node < b.Node
		}
		if a.Indegree != b.Indegree {
			return a.Indegree > b.Indegree
		}
		if a.Outdegree != b.Outdegree {
			return a.Outdegree > b.Outdegree
		}
		if a.Level != b.Level {
			return a.Level > b.Level
		}
		return a.Node < b.Node
	})
	return border[0], border
}

// seedPareDown is the original PareDown loop.
func seedPareDown(g *graph.Graph, c Constraints, opts PareDownOptions) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: "paredown"}
	blocks := graph.NewNodeSet(g.PartitionableNodes()...)

	for blocks.Len() > 0 {
		candidate := blocks.Clone()
		for candidate.Len() > 0 {
			res.FitChecks++
			if seedFits(g, candidate, c) && pareAcyclicWith(g, c, res.Partitions, candidate) {
				if candidate.Len() > 1 {
					res.Partitions = append(res.Partitions, candidate.Clone())
				}
				candidate.ForEach(blocks.Remove)
				break
			}
			if candidate.Len() == 1 {
				candidate.ForEach(blocks.Remove)
				break
			}
			removed, _ := seedPareStep(g, candidate, levels, opts.DisableTieBreaks)
			candidate.Remove(removed.Node)
		}
	}
	res.Uncovered = uncoveredFrom(g, res.Partitions)
	return res, nil
}

// seedAggregation is the original Aggregation.
func seedAggregation(g *graph.Graph, c Constraints) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: "aggregation"}
	free := graph.NewNodeSet(g.PartitionableNodes()...)

	seeds := append([]graph.NodeID(nil), g.PartitionableNodes()...)
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i], seeds[j]
		sa, sb := sensorAdjacent(g, a), sensorAdjacent(g, b)
		if sa != sb {
			return sa
		}
		if levels[a] != levels[b] {
			return levels[a] < levels[b]
		}
		return a < b
	})

	for _, seed := range seeds {
		if !free.Has(seed) {
			continue
		}
		cluster := graph.NewNodeSet(seed)
		res.FitChecks++
		if !seedFits(g, cluster, c) {
			continue
		}
		grown := true
		for grown {
			grown = false
			for _, nb := range clusterNeighbors(g, cluster, free, nil) {
				cluster.Add(nb)
				res.FitChecks++
				if seedFits(g, cluster, c) && pareAcyclicWith(g, c, res.Partitions, cluster) {
					grown = true
					break
				}
				cluster.Remove(nb)
			}
		}
		if cluster.Len() >= 2 {
			res.Partitions = append(res.Partitions, cluster)
			cluster.ForEach(free.Remove)
		}
	}
	res.Uncovered = uncoveredFrom(g, res.Partitions)
	return res, nil
}

// seedSearcher is the original sequential exhaustive searcher with its
// map-based feasibility probe.
type seedSearcher struct {
	g     *graph.Graph
	c     Constraints
	inner []graph.NodeID
	pos   map[graph.NodeID]int
	opts  seedExhaustiveOptions

	groups      []graph.NodeSet
	unassigned  int
	best        int
	bestCovered int
	bestParts   []graph.NodeSet
	res         *Result
}

// seedExhaustiveOptions tune seedExhaustive. DisableBound turns
// branch-and-bound off, the cost bound and the permanent-demand probe,
// leaving only the paper's empty-block symmetry pruning, like the 2005
// implementation: tests use it to check that pruning keeps the optimal
// cost.
type seedExhaustiveOptions struct {
	DisableBound bool
}

// seedExhaustive is the original Exhaustive.
func seedExhaustive(g *graph.Graph, c Constraints, opts seedExhaustiveOptions) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	inner := g.PartitionableNodes()
	n := len(inner)
	s := &seedSearcher{
		g:     g,
		c:     c,
		inner: inner,
		pos:   make(map[graph.NodeID]int, n),
		best:  n + 1,
		opts:  opts,
		res:   &Result{Algorithm: "exhaustive"},
	}
	for i, id := range inner {
		s.pos[id] = i
	}
	if !opts.DisableBound {
		if pd, err := seedPareDown(g, c, PareDownOptions{}); err == nil {
			s.best = pd.Cost()
			s.bestCovered = pd.Covered()
			s.bestParts = pd.Partitions
		}
	}
	s.search(0)
	if s.bestParts == nil {
		s.bestParts = []graph.NodeSet{}
	}
	s.res.Partitions = s.bestParts
	s.res.Uncovered = uncoveredFrom(g, s.bestParts)
	return s.res, nil
}

func (s *seedSearcher) search(i int) {
	s.res.NodesVisited++
	cost := s.unassigned + len(s.groups)
	if !s.opts.DisableBound && cost > s.best {
		return
	}
	if i == len(s.inner) {
		covered := 0
		for _, grp := range s.groups {
			covered += grp.Len()
		}
		better := cost < s.best || (cost == s.best && covered > s.bestCovered)
		if !better {
			return
		}
		for _, grp := range s.groups {
			if grp.Len() < 2 || !seedFits(s.g, grp, s.c) {
				return
			}
		}
		if s.c.RequireConvex {
			ct, err := s.g.Contract(s.groups)
			if err != nil || !ct.Acyclic() {
				return
			}
		}
		s.best = cost
		s.bestCovered = covered
		s.bestParts = make([]graph.NodeSet, len(s.groups))
		for gi, grp := range s.groups {
			s.bestParts[gi] = grp.Clone()
		}
		return
	}
	id := s.inner[i]

	s.unassigned++
	s.search(i + 1)
	s.unassigned--

	for gi := range s.groups {
		s.groups[gi].Add(id)
		if s.feasibleSoFar(gi, i) {
			s.search(i + 1)
		}
		s.groups[gi].Remove(id)
	}

	s.groups = append(s.groups, graph.NewNodeSet(id))
	s.search(i + 1)
	s.groups = s.groups[:len(s.groups)-1]
}

func (s *seedSearcher) feasibleSoFar(gi, i int) bool {
	if s.opts.DisableBound {
		return true
	}
	grp := s.groups[gi]
	inPorts := map[graph.Port]bool{}
	outPorts := map[graph.Port]bool{}
	permanent := func(other graph.NodeID) bool {
		if s.g.Role(other) != graph.RoleInner {
			return true
		}
		p, ok := s.pos[other]
		return ok && p <= i
	}
	for _, id := range grp.Sorted() {
		for _, e := range s.g.InEdges(id) {
			if !grp.Has(e.From.Node) && permanent(e.From.Node) {
				inPorts[e.From] = true
			}
		}
		for _, e := range s.g.AllOutEdges(id) {
			if !grp.Has(e.To.Node) && permanent(e.To.Node) {
				outPorts[e.From] = true
			}
		}
	}
	return len(inPorts) <= s.c.MaxInputs && len(outPorts) <= s.c.MaxOutputs
}

package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ExhaustiveOptions tune the optimal search.
type ExhaustiveOptions struct {
	// Ctx, when non-nil, allows cancelling long searches (the paper
	// aborted its 14-inner-block run after four hours). Cancellation
	// returns ctx.Err().
	Ctx context.Context
	// InitialBound seeds branch-and-bound with a known-achievable cost
	// (e.g. the PareDown result). 0 means no seed.
	InitialBound int
	// DisableBound turns branch-and-bound off, leaving only the paper's
	// empty-block symmetry pruning; used by the ablation benches to
	// measure the raw search like the 2005 implementation.
	DisableBound bool
	// Workers bounds the worker pool of the parallel search: the
	// shallow levels of the search tree are fanned out as independent
	// subtree tasks sharing an atomic incumbent cost bound. 0 means
	// GOMAXPROCS; 1 forces the sequential search. Designs with fewer
	// than 10 partitionable blocks always run sequentially (the fan-out
	// overhead would dominate). Partitions, cost, and coverage are
	// deterministic and identical to the sequential search regardless
	// of worker count; only the NodesVisited statistic may vary run to
	// run with workers > 1 (pruning depends on when workers observe
	// the shared bound).
	Workers int
}

// Exhaustive finds a minimum-cost partitioning by enumerating every
// assignment of inner blocks to programmable blocks (Section 4.1). The
// search space is "every combination of n blocks into n programmable
// blocks (a combination need not use every block)"; the paper's pruning
// — all empty programmable blocks are indistinguishable — is realized
// here by restricted-growth enumeration (a block may open at most one
// new group). A sound branch-and-bound on the partial cost
// (groups + unassigned, both monotone along a branch) is added on top;
// I/O feasibility is checked with a *permanent-demand* bound: only
// connectivity to already-placed or never-placeable nodes counts, since
// future additions can still internalize other edges (the convergence
// property that makes naive feasibility pruning unsound). The
// permanent demand of every open group is maintained incrementally —
// O(degree) per block placement instead of an O(group + edges) recount
// per feasibility probe — and large searches fan their shallow subtrees
// across a worker pool (see ExhaustiveOptions.Workers).
func Exhaustive(g *graph.Graph, c Constraints, opts ExhaustiveOptions) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	inner := g.PartitionableNodes()
	n := len(inner)
	res := &Result{Algorithm: "exhaustive"}

	// Initial incumbent: cost of leaving everything uncovered, plus
	// one; or the seeded bound; or the PareDown solution.
	initBest := n + 1
	initCovered := 0
	var initParts []graph.NodeSet
	seeded := opts.InitialBound > 0 && opts.InitialBound <= n
	switch {
	case seeded:
		// Only solutions strictly better than the seed are of
		// interest; ties are not reported (initCovered sentinel).
		initBest = opts.InitialBound
		initCovered = 1 << 30
	case !opts.DisableBound:
		// Seed branch-and-bound with the PareDown solution: the search
		// then only explores assignments that could beat the heuristic
		// (in cost, or in coverage at equal cost), which prunes
		// enormously while preserving optimality — if nothing better
		// exists, the heuristic's solution *is* optimal and is
		// returned as the incumbent.
		if pd, err := PareDown(g, c, PareDownOptions{}); err == nil {
			initBest = pd.Cost()
			initCovered = pd.Covered()
			initParts = pd.Partitions
		}
	}

	shared := &exShared{}
	shared.bound.Store(int64(initBest))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < 10 {
		workers = 1
	}

	// Fan the shallow levels of the search tree out as tasks. The
	// sequential search is the one-task special case.
	tasks := [][]int8{nil}
	var visited int64
	if workers > 1 {
		enum := newExSearcher(g, c, opts, inner, shared)
		tasks = enum.enumerateTasks(4 * workers)
		visited += enum.visited
	}

	results := make([]exTaskResult, len(tasks))
	var nextTask atomic.Int64
	var firstErr error
	var errMu sync.Mutex
	run := func() {
		s := newExSearcher(g, c, opts, inner, shared)
		defer func() { atomic.AddInt64(&visited, s.visited) }()
		for {
			t := int(nextTask.Add(1) - 1)
			if t >= len(tasks) {
				return
			}
			s.replay(tasks[t])
			s.best, s.bestCovered = initBest, initCovered
			s.bestParts, s.found = nil, false
			if err := s.search(len(tasks[t])); err != nil {
				// A failed search left s mid-branch; the searcher is
				// abandoned, not unwound.
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			results[t] = exTaskResult{found: s.found, cost: s.best, covered: s.bestCovered, parts: s.bestParts}
			s.unreplay(tasks[t])
		}
	}
	if workers == 1 || len(tasks) <= 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	res.NodesVisited = visited
	if firstErr != nil {
		return nil, firstErr
	}

	// Merge task results in task order with the sequential search's
	// strictly-better rule, so the outcome is identical to a
	// depth-first scan of the whole tree.
	best, covered, parts := initBest, initCovered, initParts
	for _, r := range results {
		if r.found && (r.cost < best || (r.cost == best && r.covered > covered)) {
			best, covered, parts = r.cost, r.covered, r.parts
		}
	}
	if parts == nil {
		if seeded {
			return nil, errSeedStands
		}
		// Unreachable: either the heuristic incumbent is present or the
		// all-uncovered leaf (cost n) beats the initial bound n+1.
		parts = []graph.NodeSet{}
	}
	res.Partitions = parts
	res.Uncovered = uncoveredFrom(g, parts)
	return res, nil
}

// errSeedStands reports that the seeded InitialBound could not be
// improved; callers that seeded the search should keep their seed
// solution.
var errSeedStands = fmt.Errorf("core: exhaustive search found no solution better than the seed bound")

// IsSeedStands reports whether err means the seeded bound was already
// optimal.
func IsSeedStands(err error) bool { return err == errSeedStands }

// exShared is the state shared by all workers of one search: the best
// cost found anywhere, used as the branch-and-bound pruning floor.
// Coverage ties are resolved at merge time, so only the cost needs to
// be shared.
type exShared struct {
	bound atomic.Int64
}

// offer lowers the shared bound to cost if it improves it.
func (sh *exShared) offer(cost int) {
	for {
		cur := sh.bound.Load()
		if int64(cost) >= cur || sh.bound.CompareAndSwap(cur, int64(cost)) {
			return
		}
	}
}

// exTaskResult is one subtree task's incumbent.
type exTaskResult struct {
	found   bool
	cost    int
	covered int
	parts   []graph.NodeSet
}

// exGroup is one open programmable-block group with its incrementally
// maintained permanent I/O demand: extIn[p] counts edges from
// *permanently external* output port p into members, outLv[p] counts
// edges from member output port p to permanently external nodes, and
// inputs/outputs tally the ports with non-zero counts. A node is
// permanently external to a group once it has been decided (placed in
// another group or left unassigned) or can never be placed (primary
// inputs/outputs); edges to undecided nodes do not count, because a
// future placement could still internalize them.
type exGroup struct {
	members graph.NodeSet
	size    int
	extIn   []int32
	outLv   []int32
	inputs  int
	outputs int
}

// exSearcher is one worker's search state.
type exSearcher struct {
	g     *graph.Graph
	c     Constraints
	opts  ExhaustiveOptions
	inner []graph.NodeID
	pos   []int32 // by NodeID: index in inner, or -1
	px    portIndex

	shared *exShared

	groups     []*exGroup
	free       []*exGroup // pooled, zero-counter group records
	groupOf    []int32    // by NodeID: open group index, or -1
	unassigned int
	visited    int64

	// Incumbent of the task being searched.
	best        int
	bestCovered int
	bestParts   []graph.NodeSet
	found       bool

	// Leaf-check scratch: epoch-stamped distinct-port counters for the
	// full (non-permanent) fit check, allocation-free.
	stampIn  []int64
	stampOut []int64
	epoch    int64
}

func newExSearcher(g *graph.Graph, c Constraints, opts ExhaustiveOptions, inner []graph.NodeID, shared *exShared) *exSearcher {
	px := newPortIndex(g)
	s := &exSearcher{
		g:        g,
		c:        c,
		opts:     opts,
		inner:    inner,
		pos:      make([]int32, g.NumNodes()),
		px:       px,
		shared:   shared,
		groupOf:  make([]int32, g.NumNodes()),
		stampIn:  make([]int64, px.n),
		stampOut: make([]int64, px.n),
	}
	for i := range s.pos {
		s.pos[i] = -1
		s.groupOf[i] = -1
	}
	for i, id := range inner {
		s.pos[id] = int32(i)
	}
	return s
}

// place decides block x: it joins group gi, or stays unassigned when
// gi < 0. Every affected group's permanent demand is updated in
// O(deg(x)):
//
//   - x is now decided, so its edges to members of *other* groups
//     become permanent external connectivity for those groups;
//   - if x joined a group, x's own edges to already-decided or
//     never-placeable non-members become that group's permanent
//     demand. (Edges to undecided blocks are added later, by the
//     placement that decides the other endpoint.)
func (s *exSearcher) place(x graph.NodeID, gi int) {
	i := s.pos[x]
	for _, e := range s.g.InEdgesView(x) {
		if og := s.groupOf[e.From.Node]; og >= 0 && int(og) != gi {
			grp := s.groups[og]
			p := s.px.id(e.From)
			grp.outLv[p]++
			if grp.outLv[p] == 1 {
				grp.outputs++
			}
		}
	}
	for _, e := range s.g.OutEdgesView(x) {
		if og := s.groupOf[e.To.Node]; og >= 0 && int(og) != gi {
			grp := s.groups[og]
			p := s.px.id(e.From)
			grp.extIn[p]++
			if grp.extIn[p] == 1 {
				grp.inputs++
			}
		}
	}
	if gi < 0 {
		return
	}
	grp := s.groups[gi]
	for _, e := range s.g.InEdgesView(x) {
		u := e.From.Node
		if int(s.groupOf[u]) == gi {
			continue // internal edge
		}
		if s.permanent(u, i) {
			p := s.px.id(e.From)
			grp.extIn[p]++
			if grp.extIn[p] == 1 {
				grp.inputs++
			}
		}
	}
	for _, e := range s.g.OutEdgesView(x) {
		v := e.To.Node
		if int(s.groupOf[v]) == gi {
			continue
		}
		if s.permanent(v, i) {
			p := s.px.id(e.From)
			grp.outLv[p]++
			if grp.outLv[p] == 1 {
				grp.outputs++
			}
		}
	}
	grp.members.Add(x)
	grp.size++
	s.groupOf[x] = int32(gi)
}

// unplace reverses place.
func (s *exSearcher) unplace(x graph.NodeID, gi int) {
	i := s.pos[x]
	if gi >= 0 {
		grp := s.groups[gi]
		s.groupOf[x] = -1
		grp.members.Remove(x)
		grp.size--
		for _, e := range s.g.InEdgesView(x) {
			u := e.From.Node
			if int(s.groupOf[u]) == gi {
				continue
			}
			if s.permanent(u, i) {
				p := s.px.id(e.From)
				grp.extIn[p]--
				if grp.extIn[p] == 0 {
					grp.inputs--
				}
			}
		}
		for _, e := range s.g.OutEdgesView(x) {
			v := e.To.Node
			if int(s.groupOf[v]) == gi {
				continue
			}
			if s.permanent(v, i) {
				p := s.px.id(e.From)
				grp.outLv[p]--
				if grp.outLv[p] == 0 {
					grp.outputs--
				}
			}
		}
	}
	for _, e := range s.g.InEdgesView(x) {
		if og := s.groupOf[e.From.Node]; og >= 0 && int(og) != gi {
			grp := s.groups[og]
			p := s.px.id(e.From)
			grp.outLv[p]--
			if grp.outLv[p] == 0 {
				grp.outputs--
			}
		}
	}
	for _, e := range s.g.OutEdgesView(x) {
		if og := s.groupOf[e.To.Node]; og >= 0 && int(og) != gi {
			grp := s.groups[og]
			p := s.px.id(e.From)
			grp.extIn[p]--
			if grp.extIn[p] == 0 {
				grp.inputs--
			}
		}
	}
}

// permanent reports whether node y can never join the group of the
// block at index i: primary inputs and outputs can never be placed,
// and inner blocks at earlier indexes are already decided. Pinned
// inner blocks (pos < 0) are never counted, matching the original
// snapshot computation.
func (s *exSearcher) permanent(y graph.NodeID, i int32) bool {
	if s.g.Role(y) != graph.RoleInner {
		return true
	}
	p := s.pos[y]
	return p >= 0 && p < i
}

// feasible reports whether group gi's permanent demand still fits the
// budget. If even this floor exceeds the budget, no completion can fix
// the group.
func (s *exSearcher) feasible(gi int) bool {
	grp := s.groups[gi]
	return grp.inputs <= s.c.MaxInputs && grp.outputs <= s.c.MaxOutputs
}

func (s *exSearcher) openGroup() int {
	var grp *exGroup
	if k := len(s.free); k > 0 {
		grp, s.free = s.free[k-1], s.free[:k-1]
	} else {
		grp = &exGroup{
			members: graph.NewNodeSet(),
			extIn:   make([]int32, s.px.n),
			outLv:   make([]int32, s.px.n),
		}
	}
	s.groups = append(s.groups, grp)
	return len(s.groups) - 1
}

func (s *exSearcher) closeGroup() {
	k := len(s.groups) - 1
	// The unwinding already returned every counter to zero, so the
	// record can be pooled as-is.
	s.free = append(s.free, s.groups[k])
	s.groups = s.groups[:k]
}

// search assigns inner[i] and recurses. An error (cancellation)
// returns at once without undoing any placement: the caller abandons
// the searcher.
func (s *exSearcher) search(i int) error {
	s.visited++
	if s.opts.Ctx != nil && s.visited%4096 == 0 {
		select {
		case <-s.opts.Ctx.Done():
			return s.opts.Ctx.Err()
		default:
		}
	}
	cost := s.unassigned + len(s.groups)
	if !s.opts.DisableBound && int64(cost) > s.shared.bound.Load() {
		// Cannot beat the incumbent: cost only grows along a branch.
		// Equal-cost branches stay alive for the coverage tie-break
		// (the paper's optimum "covers the most blocks with the fewest
		// partitions").
		return nil
	}
	if i == len(s.inner) {
		s.leaf(cost)
		return nil
	}
	x := s.inner[i]

	// Choice 1: leave the block unassigned (pre-defined block remains).
	s.place(x, -1)
	s.unassigned++
	if err := s.search(i + 1); err != nil {
		return err
	}
	s.unassigned--
	s.unplace(x, -1)

	// Choice 2: join an existing group.
	for gi := range s.groups {
		s.place(x, gi)
		if s.opts.DisableBound || s.feasible(gi) {
			if err := s.search(i + 1); err != nil {
				return err
			}
		}
		s.unplace(x, gi)
	}

	// Choice 3: open one new group (symmetry pruning: empty groups are
	// indistinguishable, so a single representative branch suffices).
	gi := s.openGroup()
	s.place(x, gi)
	if err := s.search(i + 1); err != nil {
		return err
	}
	s.unplace(x, gi)
	s.closeGroup()
	return nil
}

// leaf evaluates a complete assignment against the task incumbent.
func (s *exSearcher) leaf(cost int) {
	covered := 0
	for _, grp := range s.groups {
		covered += grp.size
	}
	if !(cost < s.best || (cost == s.best && covered > s.bestCovered)) {
		return
	}
	// All groups must be valid partitions under the *full* I/O count
	// (the permanent floor excludes edges to pinned inner blocks).
	for _, grp := range s.groups {
		if grp.size < 2 || !s.fitsFull(grp.members) {
			return
		}
	}
	if s.c.RequireConvex {
		parts := make([]graph.NodeSet, len(s.groups))
		for gi, grp := range s.groups {
			parts[gi] = grp.members
		}
		ct, err := s.g.Contract(parts)
		if err != nil || !ct.Acyclic() {
			return
		}
	}
	s.best = cost
	s.bestCovered = covered
	s.found = true
	s.bestParts = make([]graph.NodeSet, len(s.groups))
	for gi, grp := range s.groups {
		s.bestParts[gi] = grp.members.Clone()
	}
	if !s.opts.DisableBound {
		s.shared.offer(cost)
	}
}

// fitsFull is Fits without allocation: distinct external ports are
// counted with epoch-stamped scratch arrays.
func (s *exSearcher) fitsFull(set graph.NodeSet) bool {
	s.epoch++
	e := s.epoch
	ins, outs := 0, 0
	set.ForEach(func(id graph.NodeID) {
		for _, ed := range s.g.InEdgesView(id) {
			if !set.Has(ed.From.Node) {
				p := s.px.id(ed.From)
				if s.stampIn[p] != e {
					s.stampIn[p] = e
					ins++
				}
			}
		}
		for _, ed := range s.g.OutEdgesView(id) {
			if !set.Has(ed.To.Node) {
				p := s.px.id(ed.From)
				if s.stampOut[p] != e {
					s.stampOut[p] = e
					outs++
				}
			}
		}
	})
	if ins > s.c.MaxInputs || outs > s.c.MaxOutputs {
		return false
	}
	if s.c.RequireConvex && !s.g.IsConvex(set) {
		return false
	}
	return true
}

// Decision encoding for subtree-task prefixes: prefix[i] decides
// inner[i].
const (
	decUnassigned int8 = -1  // leave the block unassigned
	decNewGroup   int8 = 127 // open a new group for the block
	// 0..126: join the open group with that index.
)

// replay applies a decision prefix.
func (s *exSearcher) replay(prefix []int8) {
	for i, d := range prefix {
		x := s.inner[i]
		switch d {
		case decUnassigned:
			s.place(x, -1)
			s.unassigned++
		case decNewGroup:
			gi := s.openGroup()
			s.place(x, gi)
		default:
			s.place(x, int(d))
		}
	}
}

// unreplay reverses replay.
func (s *exSearcher) unreplay(prefix []int8) {
	for i := len(prefix) - 1; i >= 0; i-- {
		x := s.inner[i]
		switch d := prefix[i]; d {
		case decUnassigned:
			s.unassigned--
			s.unplace(x, -1)
		case decNewGroup:
			s.unplace(x, len(s.groups)-1)
			s.closeGroup()
		default:
			s.unplace(x, int(d))
		}
	}
}

// enumerateTasks expands the shallow levels of the search tree
// breadth-first until at least want subtree tasks exist (or the tree
// is exhausted), applying the same feasibility and bound pruning the
// depth-first search would.
func (s *exSearcher) enumerateTasks(want int) [][]int8 {
	frontier := [][]int8{nil}
	bound := int(s.shared.bound.Load())
	for depth := 0; depth < len(s.inner) && len(frontier) < want; depth++ {
		var next [][]int8
		for _, pre := range frontier {
			s.replay(pre)
			s.visited++
			cost := s.unassigned + len(s.groups)
			if !s.opts.DisableBound && cost > bound {
				s.unreplay(pre)
				continue
			}
			x := s.inner[depth]
			child := func(d int8) []int8 {
				return append(pre[:len(pre):len(pre)], d)
			}
			next = append(next, child(decUnassigned))
			for gi := range s.groups {
				s.place(x, gi)
				if s.opts.DisableBound || s.feasible(gi) {
					next = append(next, child(int8(gi)))
				}
				s.unplace(x, gi)
			}
			next = append(next, child(decNewGroup))
			s.unreplay(pre)
		}
		frontier = next
	}
	return frontier
}

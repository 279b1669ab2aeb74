package core

import (
	"context"
	"fmt"
	"math"
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
	// DisableBound turns branch-and-bound off, the cost bound and all
	// four pruning rules of Exhaustive, leaving only the paper's
	// empty-block symmetry pruning, like the 2005 implementation. Tests
	// use it to check that pruning keeps the optimal cost.
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
// new group). The result uses the fewest blocks and, at that cost,
// covers the most; a tie keeps the incumbent, else the assignment found
// first in search order.
//
// Branch-and-bound on top cuts a branch once no leaf below it can be
// strictly better than the incumbent, which starts as the PareDown
// solution or the seeded InitialBound: when the branch already costs
// more than the best cost found anywhere, or by one of four rules:
//
//  1. Coverage: at the incumbent's cost, a branch that would not cover
//     more blocks even if every undecided block joined a group. A
//     seeded InitialBound counts as covering everything.
//  2. Children first: the unassigned and new-group children are tested
//     before they are placed, and the last block opens no group, since
//     a one-member group is never a partition.
//  3. Demand: a placement that pushes any group's permanent I/O demand
//     over the budget, the joined group's or another group's that rose
//     because the block is now decided.
//  4. Stuck block: where one more unit of cost is already hopeless, a
//     node at which some undecided block fits no open group, counting
//     only its edges to nodes decided at that node.
//
// Each is sound because cost (groups + unassigned), the unassigned
// count and every group's permanent demand only grow along a branch.
// Permanent demand counts only connectivity to already-decided or
// never-placeable nodes, since future additions can still internalize
// other edges (the convergence property that makes naive feasibility
// pruning unsound), so it never exceeds the group's demand at a leaf.
// It is maintained incrementally — O(degree) per block placement
// instead of an O(group + edges) recount per feasibility probe — and
// large searches fan their shallow subtrees across a worker pool (see
// ExhaustiveOptions.Workers).
func Exhaustive(g *graph.Graph, c Constraints, opts ExhaustiveOptions) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	inner, _ := ws.partitionable(g)
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

	ws.shared.bound.Store(int64(initBest))
	s := ws.s.bind(g, c, opts, inner, &ws.shared)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < 10 {
		workers = 1
	}

	// The sequential search is one task, the whole tree, searched
	// inline; a parallel search fans the tree's shallow levels out.
	var results []exTaskResult
	var err error
	if workers == 1 {
		var r exTaskResult
		r, err = s.task(nil, initBest, initCovered)
		res.NodesVisited = s.visited
		results = []exTaskResult{r}
	} else {
		results, res.NodesVisited, err = s.fanOut(workers, initBest, initCovered)
	}
	if err != nil {
		return nil, err
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
	ws.put()
	return res, nil
}

// fanOut searches the tree as subtree tasks on a pool of workers:
// s, idle, expands the shallow levels breadth-first into at least
// 4*workers tasks against the initial incumbent (best, covered), and
// each worker searches tasks on a workspace of its own, all sharing
// s's bound. It returns every task's incumbent in task order and the
// nodes visited in all.
func (s *exSearcher) fanOut(workers, best, covered int) ([]exTaskResult, int64, error) {
	s.best, s.bestCovered = best, covered
	tasks := s.enumerateTasks(4 * workers)
	results := make([]exTaskResult, len(tasks))
	visited := s.visited
	var next atomic.Int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := getWorkspace()
			ts := ws.s.bind(s.g, s.c, s.opts, s.inner, s.shared)
			var err error
			for t := int(next.Add(1) - 1); t < len(tasks) && err == nil; t = int(next.Add(1) - 1) {
				results[t], err = ts.task(tasks[t], best, covered)
			}
			mu.Lock()
			visited += ts.visited
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			if err == nil {
				ws.put()
			}
		}()
	}
	wg.Wait()
	return results, visited, firstErr
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
	// pos is by NodeID the index at which a node is decided: its index
	// in inner; -1 for primary inputs and outputs, which are never
	// placed; MaxInt32 for pinned inner blocks, which permanent never
	// counts, matching the original snapshot computation.
	pos []int32
	px  portIndex

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

	// Scratch for fitsFull and joinable: epoch-stamped distinct-port
	// counters, allocation-free.
	stampIn  []int64
	stampOut []int64
	epoch    int64
}

// bind makes s an idle searcher over g's partitionable nodes inner,
// reusing its storage: every array is sized and reset for g, no group
// is open, and every pooled group record is zeroed for g's ports.
func (s *exSearcher) bind(g *graph.Graph, c Constraints, opts ExhaustiveOptions, inner []graph.NodeID, shared *exShared) *exSearcher {
	s.g, s.c, s.opts, s.inner, s.shared = g, c, opts, inner, shared
	s.px.index(g)
	s.pos = sized(s.pos, g.NumNodes())
	s.groupOf = sized(s.groupOf, g.NumNodes())
	s.stampIn = sized(s.stampIn, s.px.n)
	s.stampOut = sized(s.stampOut, s.px.n)
	s.epoch = 0
	for i := range s.pos {
		s.pos[i] = math.MaxInt32
		if g.Role(graph.NodeID(i)) != graph.RoleInner {
			s.pos[i] = -1
		}
		s.groupOf[i] = -1
	}
	for i, id := range inner {
		s.pos[id] = int32(i)
	}
	s.groups = s.groups[:0]
	for _, grp := range s.free {
		grp.reset(s.px.n)
	}
	s.unassigned, s.visited = 0, 0
	s.best, s.bestCovered, s.bestParts, s.found = 0, 0, nil, false
	return s
}

// reset empties grp and sizes its counters for n ports.
func (grp *exGroup) reset(n int) {
	grp.members.Clear()
	grp.size, grp.inputs, grp.outputs = 0, 0, 0
	grp.extIn = sized(grp.extIn, n)
	grp.outLv = sized(grp.outLv, n)
}

// task searches the subtree below a decision prefix against the
// incumbent (best, covered) every task starts from, then undoes the
// prefix. An error (cancellation) returns at once and leaves s
// mid-branch: the caller abandons the searcher, with its workspace,
// instead of unwinding it.
func (s *exSearcher) task(prefix []int8, best, covered int) (exTaskResult, error) {
	s.replay(prefix)
	s.best, s.bestCovered = best, covered
	s.bestParts, s.found = nil, false
	if err := s.search(len(prefix)); err != nil {
		return exTaskResult{}, err
	}
	s.unreplay(prefix)
	return exTaskResult{found: s.found, cost: s.best, covered: s.bestCovered, parts: s.bestParts}, nil
}

// addIn counts one more permanent edge from external port p into the
// group and reports whether its input demand still fits max.
func (grp *exGroup) addIn(p int32, max int) bool {
	grp.extIn[p]++
	if grp.extIn[p] == 1 {
		grp.inputs++
	}
	return grp.inputs <= max
}

// addOut counts one more permanent edge from member port p to a
// non-member and reports whether its output demand still fits max.
func (grp *exGroup) addOut(p int32, max int) bool {
	grp.outLv[p]++
	if grp.outLv[p] == 1 {
		grp.outputs++
	}
	return grp.outputs <= max
}

// subIn reverses addIn.
func (grp *exGroup) subIn(p int32) {
	grp.extIn[p]--
	if grp.extIn[p] == 0 {
		grp.inputs--
	}
}

// subOut reverses addOut.
func (grp *exGroup) subOut(p int32) {
	grp.outLv[p]--
	if grp.outLv[p] == 0 {
		grp.outputs--
	}
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
//
// It reports whether every group whose demand rose still fits the
// budget. Demand only grows along a branch and never exceeds the
// group's full demand at a leaf, so a group over the budget makes
// every leaf below invalid.
func (s *exSearcher) place(x graph.NodeID, gi int) bool {
	i := s.pos[x]
	maxIn, maxOut := s.c.MaxInputs, s.c.MaxOutputs
	fits := true
	for _, e := range s.g.InEdgesView(x) {
		if og := s.groupOf[e.From.Node]; og >= 0 && int(og) != gi {
			fits = s.groups[og].addOut(s.px.id(e.From), maxOut) && fits
		}
	}
	for _, e := range s.g.OutEdgesView(x) {
		if og := s.groupOf[e.To.Node]; og >= 0 && int(og) != gi {
			fits = s.groups[og].addIn(s.px.id(e.From), maxIn) && fits
		}
	}
	if gi < 0 {
		return fits
	}
	grp := s.groups[gi]
	for _, e := range s.g.InEdgesView(x) {
		if u := e.From.Node; int(s.groupOf[u]) != gi && s.permanent(u, i) {
			fits = grp.addIn(s.px.id(e.From), maxIn) && fits
		}
	}
	for _, e := range s.g.OutEdgesView(x) {
		if v := e.To.Node; int(s.groupOf[v]) != gi && s.permanent(v, i) {
			fits = grp.addOut(s.px.id(e.From), maxOut) && fits
		}
	}
	grp.members.Add(x)
	grp.size++
	s.groupOf[x] = int32(gi)
	return fits
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
			if u := e.From.Node; int(s.groupOf[u]) != gi && s.permanent(u, i) {
				grp.subIn(s.px.id(e.From))
			}
		}
		for _, e := range s.g.OutEdgesView(x) {
			if v := e.To.Node; int(s.groupOf[v]) != gi && s.permanent(v, i) {
				grp.subOut(s.px.id(e.From))
			}
		}
	}
	for _, e := range s.g.InEdgesView(x) {
		if og := s.groupOf[e.From.Node]; og >= 0 && int(og) != gi {
			s.groups[og].subOut(s.px.id(e.From))
		}
	}
	for _, e := range s.g.OutEdgesView(x) {
		if og := s.groupOf[e.To.Node]; og >= 0 && int(og) != gi {
			s.groups[og].subIn(s.px.id(e.From))
		}
	}
}

// permanent reports whether node y can never join the group of the
// block at index i: primary inputs and outputs can never be placed,
// and inner blocks at earlier indexes are already decided.
func (s *exSearcher) permanent(y graph.NodeID, i int32) bool {
	return s.pos[y] < i
}

// hopeless reports whether no leaf of at least the given cost that
// covers at most covered blocks can beat the incumbent: its cost
// exceeds the shared bound, or it ties the task's incumbent cost
// without covering more blocks. The shared bound carries cost alone,
// so the coverage test reads the task's own incumbent.
func (s *exSearcher) hopeless(cost, covered int) bool {
	if s.opts.DisableBound {
		return false
	}
	return int64(cost) > s.shared.bound.Load() || (cost == s.best && covered <= s.bestCovered)
}

// stuck reports whether some undecided block fits no open group even
// counting only its edges to nodes decided now. Those edges are
// permanent demand of any group the block joins later; edges to blocks
// decided in between are not, since those may join the same group.
// A stuck block must stay unassigned or open a group, at one more unit
// of cost.
func (s *exSearcher) stuck(i int) bool {
	for _, y := range s.inner[i:] {
		if !s.joinable(y, int32(i)) {
			return true
		}
	}
	return false
}

// joinable reports whether block y could join some open group within
// the budget, counting y's edges to nodes permanent at index i. The
// epoch-stamped scratch counts each new port once.
func (s *exSearcher) joinable(y graph.NodeID, i int32) bool {
	for gi, grp := range s.groups {
		s.epoch++
		ep := s.epoch
		ins, outs := grp.inputs, grp.outputs
		for _, e := range s.g.InEdgesView(y) {
			if u := e.From.Node; int(s.groupOf[u]) != gi && s.permanent(u, i) {
				if p := s.px.id(e.From); grp.extIn[p] == 0 && s.stampIn[p] != ep {
					s.stampIn[p] = ep
					ins++
				}
			}
		}
		for _, e := range s.g.OutEdgesView(y) {
			// y's own ports are not yet counted by any group.
			if v := e.To.Node; int(s.groupOf[v]) != gi && s.permanent(v, i) {
				if p := s.px.id(e.From); s.stampOut[p] != ep {
					s.stampOut[p] = ep
					outs++
				}
			}
		}
		if ins <= s.c.MaxInputs && outs <= s.c.MaxOutputs {
			return true
		}
	}
	return false
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
	if s.opts.Ctx != nil && s.visited%1024 == 0 {
		select {
		case <-s.opts.Ctx.Done():
			return s.opts.Ctx.Err()
		default:
		}
	}
	if i == len(s.inner) {
		s.leaf()
		return nil
	}
	return s.children(i, func(int8) error { return s.search(i + 1) })
}

// children decides block inner[i] as each child the pruning admits, in
// the search's order: unassigned, joined to each open group, then in
// one new group (symmetry pruning: empty groups are indistinguishable,
// so a single representative suffices). For each it calls visit with
// the decision and then undoes the placement; an error from visit
// returns at once, as in search. A child is tested before it is
// visited: the cost and coverage bounds first, then place's report.
// The last block opens no group, which would keep one member. When one
// more unit of cost is already hopeless, a stuck block cuts the node.
func (s *exSearcher) children(i int, visit func(d int8) error) error {
	x := s.inner[i]
	cost, reach := s.unassigned+len(s.groups), len(s.inner)-s.unassigned
	bounded := !s.opts.DisableBound
	if s.hopeless(cost+1, reach) && s.stuck(i) {
		return nil
	}
	if !s.hopeless(cost+1, reach-1) {
		fits := s.place(x, -1)
		s.unassigned++
		if fits || !bounded {
			if err := visit(decUnassigned); err != nil {
				return err
			}
		}
		s.unassigned--
		s.unplace(x, -1)
	}
	for gi := range s.groups {
		if s.hopeless(cost, reach) {
			break // an earlier child's leaf improved the incumbent
		}
		if s.place(x, gi) || !bounded {
			if err := visit(int8(gi)); err != nil {
				return err
			}
		}
		s.unplace(x, gi)
	}
	if (bounded && i == len(s.inner)-1) || s.hopeless(cost+1, reach) {
		return nil
	}
	gi := s.openGroup()
	if s.place(x, gi) || !bounded {
		if err := visit(decNewGroup); err != nil {
			return err
		}
	}
	s.unplace(x, gi)
	s.closeGroup()
	return nil
}

// leaf evaluates a complete assignment against the task incumbent.
func (s *exSearcher) leaf() {
	cost, covered := s.unassigned+len(s.groups), len(s.inner)-s.unassigned
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
// is exhausted). Each frontier node's children pass the same filter
// the depth-first search applies (children), against the initial
// incumbent every task starts from.
func (s *exSearcher) enumerateTasks(want int) [][]int8 {
	frontier := [][]int8{nil}
	for depth := 0; depth < len(s.inner) && len(frontier) < want; depth++ {
		var next [][]int8
		for _, pre := range frontier {
			s.replay(pre)
			s.visited++
			// The collecting visit never fails, so neither does children.
			_ = s.children(depth, func(d int8) error {
				next = append(next, append(pre[:len(pre):len(pre)], d))
				return nil
			})
			s.unreplay(pre)
		}
		frontier = next
	}
	return frontier
}

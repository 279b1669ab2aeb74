package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// Workers is ignored: the search runs on the calling goroutine. It
	// remains so that callers which set it keep compiling.
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
// more than the incumbent, or by one of four rules:
//
//  1. Coverage: at the incumbent's cost, a branch that would not cover
//     more blocks even if every undecided block joined a group. A
//     seeded InitialBound counts as covering everything.
//  2. Children first: the unassigned and new-group children are tested
//     before they are placed, and the last block opens no group, since
//     a one-member group is never a partition.
//  3. Demand: a placement after which some open group can no longer
//     end as a fitting group.
//  4. Stuck block: where one more unit of cost is already hopeless, a
//     node at which some undecided block can join no open group.
//
// Each is sound because cost (groups + unassigned) and the unassigned
// count only grow along a branch, and a group's decided members and
// non-members only accumulate. Two engines apply rules 3 and 4, and
// both return the same partitions for every input:
//
//   - The family engine, for designs of at most 64 partitionable
//     blocks, lists the design's fitting groups once per call (see
//     famSearcher.build): every group of at least two blocks within the
//     budget, and convex under RequireConvex. Each open group carries
//     the bitset of the listed groups that still match its decisions,
//     so a placement is viable when every open group keeps a match, a
//     group whose every match holds the block forces the join, a block
//     is stuck when no open group's matches hold it, and a complete
//     assignment needs no fit re-check. The list is built when the
//     search first opens a group.
//   - The permanent-demand engine runs instead for larger designs,
//     with DisableBound, and when the list outgrows a fixed bound
//     (loose budgets give some designs millions of fitting groups). It
//     keeps each group's permanent I/O demand: only connectivity to
//     already-decided or never-placeable nodes, since future additions
//     can still internalize other edges (the convergence property that
//     makes naive feasibility pruning unsound), so it never exceeds
//     the group's demand at a leaf. It is maintained incrementally,
//     O(degree) per block placement, and a leaf re-checks every group's
//     full demand.
func Exhaustive(g *graph.Graph, c Constraints, opts ExhaustiveOptions) (*Result, error) {
	return exhaustive(g, c, opts, true)
}

// exhaustive is Exhaustive on the family engine when family is set,
// else on the permanent-demand engine alone.
func exhaustive(g *graph.Graph, c Constraints, opts ExhaustiveOptions, family bool) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	inner, _ := ws.partitionable(g)
	n := len(inner)
	res := &Result{Algorithm: "exhaustive"}

	// Initial incumbent: cost of leaving everything uncovered, plus
	// one; or the seeded bound; or the PareDown solution.
	init := incumbent{cost: n + 1}
	seeded := opts.InitialBound > 0 && opts.InitialBound <= n
	switch {
	case seeded:
		// Only solutions strictly better than the seed are of
		// interest; ties are not reported (covered sentinel).
		init.cost, init.covered = opts.InitialBound, 1<<30
	case !opts.DisableBound:
		// Seed branch-and-bound with the PareDown solution: the search
		// then only explores assignments that could beat the heuristic
		// (in cost, or in coverage at equal cost), which prunes
		// enormously while preserving optimality — if nothing better
		// exists, the heuristic's solution *is* optimal and is
		// returned as the incumbent.
		if pd, err := PareDown(g, c, PareDownOptions{}); err == nil {
			init = incumbent{cost: pd.Cost(), covered: pd.Covered(), parts: pd.Partitions}
		}
	}

	best := &init
	err := errFamilyBound
	if family && n <= 64 && !opts.DisableBound {
		f := ws.f.bind(g, c, opts, inner, init)
		err = f.search(0)
		res.NodesVisited, best = f.visited, &f.incumbent
	}
	if err == errFamilyBound {
		s := ws.s.bind(g, c, opts, inner, init)
		err = s.search(0)
		res.NodesVisited, best = res.NodesVisited+s.visited, &s.incumbent
	}
	if err != nil {
		return nil, err
	}
	parts := best.parts
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

// errSeedStands reports that the seeded InitialBound could not be
// improved; callers that seeded the search should keep their seed
// solution.
var errSeedStands = fmt.Errorf("core: exhaustive search found no solution better than the seed bound")

// IsSeedStands reports whether err means the seeded bound was already
// optimal.
func IsSeedStands(err error) bool { return err == errSeedStands }

// errFamilyBound stops the family engine when the design's family of
// fitting groups outgrows maxFamily or its enumeration outlasts
// maxFamilySteps; the permanent-demand engine then searches instead.
var errFamilyBound = fmt.Errorf("core: family of fitting groups over its bound")

// The family engine's bounds. At the 2x2 budget a 45-block Table 2
// design has at most a few hundred fitting groups and a 13-block one a
// few dozen; a 30-block design at an 8x8 budget has millions.
const (
	maxFamily      = 1 << 12
	maxFamilySteps = 1 << 16
)

// incumbent is a search's best complete assignment: its cost, the
// blocks it covers and its partitions, which are nil only while nothing
// has beaten a seeded InitialBound.
type incumbent struct {
	cost    int
	covered int
	parts   []graph.NodeSet
}

// better reports whether a leaf of the given cost and coverage would
// improve on the incumbent: fewer blocks, or as many covering more. A
// branch none of whose leaves can be better is hopeless.
func (in *incumbent) better(cost, covered int) bool {
	return cost < in.cost || (cost == in.cost && covered > in.covered)
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

// exSearcher is the permanent-demand engine's search state.
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

	incumbent
	groups     []*exGroup
	free       []*exGroup // pooled, zero-counter group records
	groupOf    []int32    // by NodeID: open group index, or -1
	unassigned int
	visited    int64

	// Scratch for fitsFull and joinable: epoch-stamped distinct-port
	// counters, allocation-free.
	stampIn  []int64
	stampOut []int64
	epoch    int64
}

// bind makes s an idle searcher over g's partitionable nodes inner
// with incumbent init, reusing its storage: every array is sized and
// reset for g, no group is open, and every pooled group record is
// zeroed for g's ports.
func (s *exSearcher) bind(g *graph.Graph, c Constraints, opts ExhaustiveOptions, inner []graph.NodeID, init incumbent) *exSearcher {
	s.g, s.c, s.opts, s.inner, s.incumbent = g, c, opts, inner, init
	s.px.number(g)
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
	return s
}

// reset empties grp and sizes its counters for n ports.
func (grp *exGroup) reset(n int) {
	grp.members.Clear()
	grp.size, grp.inputs, grp.outputs = 0, 0, 0
	grp.extIn = sized(grp.extIn, n)
	grp.outLv = sized(grp.outLv, n)
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
// covers at most covered blocks can beat the incumbent.
func (s *exSearcher) hopeless(cost, covered int) bool {
	return !s.opts.DisableBound && !s.better(cost, covered)
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
	return s.children(i)
}

// children decides block inner[i] as each child the pruning admits, in
// the search's order: unassigned, joined to each open group, then in
// one new group (symmetry pruning: empty groups are indistinguishable,
// so a single representative suffices), searching below each and then
// undoing the placement. A child is tested before it is searched: the
// cost and coverage bounds first, then place's report. The last block
// opens no group, which would keep one member. When one more unit of
// cost is already hopeless, a stuck block cuts the node.
func (s *exSearcher) children(i int) error {
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
			if err := s.search(i + 1); err != nil {
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
			if err := s.search(i + 1); err != nil {
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
		if err := s.search(i + 1); err != nil {
			return err
		}
	}
	s.unplace(x, gi)
	s.closeGroup()
	return nil
}

// leaf evaluates a complete assignment against the incumbent.
func (s *exSearcher) leaf() {
	cost, covered := s.unassigned+len(s.groups), len(s.inner)-s.unassigned
	if !s.better(cost, covered) {
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
	s.cost, s.covered = cost, covered
	s.parts = make([]graph.NodeSet, len(s.groups))
	for gi, grp := range s.groups {
		s.parts[gi] = grp.members.Clone()
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

// famSearcher is the family engine's search state. Blocks are named by
// their index in inner, and a set of blocks is a mask over those
// indexes.
type famSearcher struct {
	g     *graph.Graph
	c     Constraints
	opts  ExhaustiveOptions
	inner []graph.NodeID
	full  uint64 // every block

	incumbent
	unassigned int
	visited    int64

	// The family, built when the search first opens a group: sets
	// lists the design's fitting groups of at least two blocks, ordered
	// by lowest member, sets[at[j]:at[j+1]] being those whose lowest
	// member is block j; has[i*words:(i+1)*words] is the bitset of the
	// sets that hold block i.
	built bool
	sets  []uint64
	at    []int32
	words int
	has   []uint64

	// The open groups (see famOpen). Level i of lv, stride words long,
	// holds while block i is decided each open group's matches; a
	// group opened by block j keeps them at offset slot[j].
	open   []famOpen
	slot   []int32
	stride int
	lv     []uint64

	// Enumeration scratch (see build): the port index; each node's
	// index in inner, or -1 when it is not partitionable; the blocks'
	// edges, block i's in-edges being edges[edgeAt[2i]:edgeAt[2i+1]]
	// and its out-edges edges[edgeAt[2i+1]:edgeAt[2i+2]]; each block's
	// partitionable neighbours; the permanent demand of the set being
	// grown, counted as exGroup counts it; the fitting connected sets,
	// singletons included, ordered by lowest member
	// (comps[compAt[j]:compAt[j+1]] have block j lowest); their input
	// ports, then the unions' per depth; the enumeration's step count;
	// the fewest outputs of any of them; and scratch node sets.
	px              portIndex
	idx             []int32
	edges           []famEdge
	edgeAt          []int32
	near            []uint64
	extIn, outLv    []int32
	inputs, outputs int
	comps           []famComp
	compAt          []int32
	minOuts         int32
	ports           []int32
	steps           int
	tmp             graph.NodeSet
	groupSets       []graph.NodeSet
}

// famOpen is one open group: its members, and where its matches lie.
// A group's matches are the bitset of the sets that agree with its
// decisions so far: they hold its members and none of the blocks
// decided otherwise. All of them have the group's opener j as lowest
// member, so they lie in the w words of the family from lo = at[j]>>6
// on, kept at offset off of each level.
type famOpen struct {
	members    uint64
	off, lo, w int
}

// famEdge is one edge of a block: the output port it leaves from, and
// the index of the node at its other end, or -1 when that node is not
// partitionable.
type famEdge struct{ port, peer int32 }

// famComp is one fitting connected set: its members, their
// neighbourhood (the members and every block adjacent to one), its
// input ports ports[lo:hi] in ascending order, and its output count.
type famComp struct {
	set, near uint64
	lo, hi    int32
	outs      int32
}

// bind makes f an idle searcher over g's partitionable nodes inner
// with incumbent init, reusing its storage. The family is not built
// yet, and no group is open.
func (f *famSearcher) bind(g *graph.Graph, c Constraints, opts ExhaustiveOptions, inner []graph.NodeID, init incumbent) *famSearcher {
	f.g, f.c, f.opts, f.inner, f.incumbent = g, c, opts, inner, init
	n := len(inner)
	f.full = uint64(1)<<n - 1
	f.unassigned, f.visited, f.built, f.stride, f.words = 0, 0, false, 0, 0
	f.open = sized(f.open, n)[:0]
	return f
}

// search decides block i and recurses, like exSearcher.search.
func (f *famSearcher) search(i int) error {
	f.visited++
	if f.opts.Ctx != nil && f.visited%1024 == 0 {
		select {
		case <-f.opts.Ctx.Done():
			return f.opts.Ctx.Err()
		default:
		}
	}
	if i == len(f.inner) {
		f.leaf()
		return nil
	}
	return f.children(i)
}

// hopeless reports whether no leaf of at least the given cost that
// covers at most covered blocks can beat the incumbent.
func (f *famSearcher) hopeless(cost, covered int) bool { return !f.better(cost, covered) }

// children decides block i as exSearcher.children does, in the same
// order and under the same cost and coverage bounds, with rules 3 and 4
// read from the open groups' matches.
func (f *famSearcher) children(i int) error {
	cost, reach := f.unassigned+len(f.open), len(f.inner)-f.unassigned
	if f.hopeless(cost+1, reach) && f.stuck(i) {
		return nil
	}
	// Every decision but joining group k leaves it the matches without
	// block i; write those to the next level. A group left with none
	// must take block i; two such groups cut the node.
	cur, next := f.lv[i*f.stride:(i+1)*f.stride], f.lv[(i+1)*f.stride:(i+2)*f.stride]
	has := f.has[i*f.words : (i+1)*f.words]
	forced := -1
	for k := range f.open {
		o := &f.open[k]
		var rest uint64
		for x := range o.w {
			next[o.off+x] = cur[o.off+x] &^ has[o.lo+x]
			rest |= next[o.off+x]
		}
		if rest == 0 {
			if forced >= 0 {
				return nil
			}
			forced = k
		}
	}
	if forced < 0 && !f.hopeless(cost+1, reach-1) {
		f.unassigned++
		if err := f.search(i + 1); err != nil {
			return err
		}
		f.unassigned--
	}
	for k := range f.open {
		if f.hopeless(cost, reach) {
			break // an earlier child's leaf improved the incumbent
		}
		if forced >= 0 && k != forced {
			continue
		}
		o := &f.open[k]
		var with uint64
		for x := range o.w {
			next[o.off+x] = cur[o.off+x] & has[o.lo+x]
			with |= next[o.off+x]
		}
		if with != 0 {
			o.members |= 1 << i
			if err := f.search(i + 1); err != nil {
				return err
			}
			o.members &^= 1 << i
		}
		for x := range o.w {
			next[o.off+x] = cur[o.off+x] &^ has[o.lo+x]
		}
	}
	if forced >= 0 || i == len(f.inner)-1 || f.hopeless(cost+1, reach) {
		return nil
	}
	if !f.built && !f.build() {
		return errFamilyBound
	}
	if f.at[i] == f.at[i+1] {
		return nil // no fitting group has block i lowest
	}
	// The family may have been built below this node, after next was
	// taken.
	next = f.lv[(i+1)*f.stride : (i+2)*f.stride]
	o := famOpen{members: 1 << i, off: int(f.slot[i]), lo: int(f.at[i] >> 6), w: int(f.slot[i+1] - f.slot[i])}
	for x := range o.w {
		next[o.off+x] = wordRange(o.lo+x, int(f.at[i]), int(f.at[i+1]))
	}
	f.open = append(f.open, o)
	if err := f.search(i + 1); err != nil {
		return err
	}
	f.open = f.open[:len(f.open)-1]
	return nil
}

// wordRange returns the bits of word w that lie in [a, b).
func wordRange(w, a, b int) uint64 {
	m := ^uint64(0)
	if d := a - w<<6; d > 0 {
		m <<= d
	}
	if d := (w+1)<<6 - b; d > 0 {
		m &= ^uint64(0) >> d
	}
	return m
}

// stuck reports whether some undecided block is held by no open
// group's matches, so it can join no open group.
func (f *famSearcher) stuck(i int) bool {
	need := f.full &^ (uint64(1)<<i - 1)
	cur := f.lv[i*f.stride : (i+1)*f.stride]
	for _, o := range f.open {
		for x := range o.w {
			for m := cur[o.off+x]; m != 0; m &= m - 1 {
				need &^= f.sets[(o.lo+x)<<6+bits.TrailingZeros64(m)]
			}
			if need == 0 {
				return false
			}
		}
	}
	return true
}

// leaf evaluates a complete assignment against the incumbent. Every
// open group kept a match, so each is a fitting group of at least two
// blocks; only the joint acyclicity of RequireConvex is left to check.
func (f *famSearcher) leaf() {
	cost, covered := f.unassigned+len(f.open), len(f.inner)-f.unassigned
	if !f.better(cost, covered) {
		return
	}
	if f.c.RequireConvex {
		for len(f.groupSets) < len(f.open) {
			f.groupSets = append(f.groupSets, graph.NewNodeSet())
		}
		parts := f.groupSets[:len(f.open)]
		for k, o := range f.open {
			f.nodeSet(parts[k], o.members)
		}
		ct, err := f.g.Contract(parts)
		if err != nil || !ct.Acyclic() {
			return
		}
	}
	f.cost, f.covered = cost, covered
	f.parts = make([]graph.NodeSet, len(f.open))
	for k, o := range f.open {
		f.parts[k] = f.nodeSet(f.tmp, o.members).Clone()
	}
}

// nodeSet makes set hold the blocks of mask m and returns it.
func (f *famSearcher) nodeSet(set graph.NodeSet, m uint64) graph.NodeSet {
	set.Clear()
	for ; m != 0; m &= m - 1 {
		set.Add(f.inner[bits.TrailingZeros64(m)])
	}
	return set
}

// build lists the design's fitting groups in sets, and sizes the
// search's levels. A fitting group's connected components are fitting
// connected sets, since no edge joins two of them (so each one's
// external ports are some of the group's), and each is convex when the
// group is (a path leaving one component leaves the group). So build
// first grows every fitting connected set from its lowest block, cut by
// permanent demand (grow), then records each set of at least two blocks
// and every fitting union of pairwise disjoint, non-adjacent ones
// (unite). It reports false when the family outgrows maxFamily or the
// enumeration takes over maxFamilySteps steps.
func (f *famSearcher) build() bool {
	g, n := f.g, len(f.inner)
	f.built = true
	f.px.number(g)
	f.extIn, f.outLv = sized(f.extIn, f.px.n), sized(f.outLv, f.px.n)
	f.inputs, f.outputs = 0, 0
	f.idx = sized(f.idx, g.NumNodes())
	for i := range f.idx {
		f.idx[i] = -1
	}
	for i, id := range f.inner {
		f.idx[id] = int32(i)
	}
	f.edges, f.edgeAt, f.near = f.edges[:0], sized(f.edgeAt, 2*n+1), sized(f.near, n)
	for i, id := range f.inner {
		for _, e := range g.InEdgesView(id) {
			f.edges = append(f.edges, famEdge{f.px.id(e.From), f.idx[e.From.Node]})
		}
		f.edgeAt[2*i+1] = int32(len(f.edges))
		for _, e := range g.OutEdgesView(id) {
			f.edges = append(f.edges, famEdge{f.px.id(e.From), f.idx[e.To.Node]})
		}
		f.edgeAt[2*i+2] = int32(len(f.edges))
		for _, e := range f.edges[f.edgeAt[2*i]:] {
			if e.peer >= 0 {
				f.near[i] |= 1 << e.peer
			}
		}
	}
	f.comps, f.ports, f.steps = f.comps[:0], f.ports[:0], 0
	f.compAt = sized(f.compAt, n+1)
	for v := range n {
		f.compAt[v] = int32(len(f.comps))
		out := uint64(1)<<v - 1
		ok := !f.enter(v, out, false) || f.grow(1<<v, out, f.near[v]&^out)
		f.enter(v, out, true)
		if !ok {
			return false
		}
	}
	f.compAt[n] = int32(len(f.comps))

	f.minOuts = math.MaxInt32
	for _, c := range f.comps {
		f.minOuts = min(f.minOuts, c.outs)
	}
	f.sets, f.at = f.sets[:0], sized(f.at, n+1)
	for v := range n {
		f.at[v] = int32(len(f.sets))
		comps := f.comps[f.compAt[v]:f.compAt[v+1]]
		for _, c := range comps {
			if c.set&(c.set-1) != 0 {
				f.sets = append(f.sets, c.set)
			}
		}
		for _, c := range comps {
			if !f.unite(v, c.set, c.near, int(c.lo), int(c.hi), c.outs) {
				return false
			}
		}
		if len(f.sets) > maxFamily {
			return false
		}
	}
	f.at[n] = int32(len(f.sets))

	f.words = (len(f.sets) + 63) >> 6
	f.has = sized(f.has, n*f.words)
	for t, s := range f.sets {
		for ; s != 0; s &= s - 1 {
			f.has[bits.TrailingZeros64(s)*f.words+t>>6] |= 1 << (t & 63)
		}
	}
	f.slot = sized(f.slot, n+1)
	for j := range n {
		w := int32(0)
		if a, b := f.at[j], f.at[j+1]; a < b {
			w = (b-1)>>6 - a>>6 + 1
		}
		f.slot[j+1] = f.slot[j] + w
	}
	f.stride = int(f.slot[n])
	f.lv = sized(f.lv, (n+1)*f.stride)
	return true
}

// grow enumerates the fitting connected sets that contain in, exclude
// out and can grow only through pend, the undecided blocks adjacent to
// in, each exactly once: the lowest pending block joins, then stays
// out. Its permanent demand covers the edges from in
// to out and to nodes that are not partitionable; it only accumulates
// along a branch, so a branch whose demand exceeds the budget is cut.
// grow reports false when the enumeration outgrows its bounds.
func (f *famSearcher) grow(in, out, pend uint64) bool {
	if f.steps++; f.steps > maxFamilySteps {
		return false
	}
	if pend == 0 {
		return f.addComp(in)
	}
	w := bits.TrailingZeros64(pend)
	pend &^= 1 << w
	if f.enter(w, out, false) {
		grown := in | 1<<w
		if !f.grow(grown, out, pend|f.near[w]&^(grown|out)) {
			return false
		}
	}
	f.enter(w, out, true)
	if f.leave(w, in, false) && !f.grow(in, out|1<<w, pend) {
		return false
	}
	f.leave(w, in, true)
	return true
}

// enter counts the permanent demand block w brings when it joins the
// grown set: its edges to the blocks of out and to nodes that are not
// partitionable. With undo it takes the counts back. It reports
// whether the demand fits the budget.
func (f *famSearcher) enter(w int, out uint64, undo bool) bool {
	fits := true
	for _, e := range f.edges[f.edgeAt[2*w]:f.edgeAt[2*w+1]] {
		if e.peer < 0 || out>>e.peer&1 != 0 {
			fits = bump(f.extIn, &f.inputs, e.port, undo) <= f.c.MaxInputs && fits
		}
	}
	for _, e := range f.edges[f.edgeAt[2*w+1]:f.edgeAt[2*w+2]] {
		if e.peer < 0 || out>>e.peer&1 != 0 {
			fits = bump(f.outLv, &f.outputs, e.port, undo) <= f.c.MaxOutputs && fits
		}
	}
	return fits
}

// leave counts the permanent demand block w brings when it stays out
// of the grown set in: its edges to members. With undo it takes the
// counts back. It reports whether the demand fits the budget.
func (f *famSearcher) leave(w int, in uint64, undo bool) bool {
	fits := true
	for _, e := range f.edges[f.edgeAt[2*w]:f.edgeAt[2*w+1]] {
		if e.peer >= 0 && in>>e.peer&1 != 0 {
			fits = bump(f.outLv, &f.outputs, e.port, undo) <= f.c.MaxOutputs && fits
		}
	}
	for _, e := range f.edges[f.edgeAt[2*w+1]:f.edgeAt[2*w+2]] {
		if e.peer >= 0 && in>>e.peer&1 != 0 {
			fits = bump(f.extIn, &f.inputs, e.port, undo) <= f.c.MaxInputs && fits
		}
	}
	return fits
}

// bump moves port p's edge counter in cnt by one, up or down with
// undo, keeping *ports, the number of ports with edges, and returns it.
func bump(cnt []int32, ports *int, p int32, undo bool) int {
	if undo {
		if cnt[p]--; cnt[p] == 0 {
			*ports--
		}
	} else if cnt[p]++; cnt[p] == 1 {
		*ports++
	}
	return *ports
}

// addComp records the grown set as a fitting connected set: its
// permanent demand is its whole demand now that no block is pending.
func (f *famSearcher) addComp(set uint64) bool {
	if f.c.RequireConvex && !f.g.IsConvex(f.nodeSet(f.tmp, set)) {
		return true
	}
	c := famComp{set: set, near: set, lo: int32(len(f.ports)), outs: int32(f.outputs)}
	for m := set; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c.near |= f.near[i]
		for _, e := range f.edges[f.edgeAt[2*i]:f.edgeAt[2*i+1]] {
			if (e.peer < 0 || set>>e.peer&1 == 0) && !slices.Contains(f.ports[c.lo:], e.port) {
				f.ports = append(f.ports, e.port)
			}
		}
	}
	c.hi = int32(len(f.ports))
	slices.Sort(f.ports[c.lo:])
	f.comps = append(f.comps, c)
	return len(f.comps) <= maxFamily
}

// unite records every fitting union of the union u, whose lowest
// component has block r lowest, with further connected sets, each
// lowest at a block above r and clear of u's neighbourhood near. u
// has input ports ports[lo:hi] and outs outputs: a union's inputs are
// its components' input ports together, and its outputs theirs added
// up, since no edge joins two of them. Both only grow with the union,
// and so does non-convexity (a path from one component to another
// leaves through a neighbour, which no later component may hold), so a
// union over the budget is not extended. unite reports false when the
// enumeration outgrows its bounds.
func (f *famSearcher) unite(r int, set, near uint64, lo, hi int, outs int32) bool {
	if int(outs+f.minOuts) > f.c.MaxOutputs {
		return true // no component fits the outputs left
	}
	for roots := f.full &^ near &^ (uint64(2)<<r - 1); roots != 0; roots &= roots - 1 {
		v := bits.TrailingZeros64(roots)
		for k := f.compAt[v]; k < f.compAt[v+1]; k++ {
			c := f.comps[k]
			if f.steps++; f.steps > maxFamilySteps {
				return false
			}
			if c.set&near != 0 || int(outs+c.outs) > f.c.MaxOutputs {
				continue
			}
			mid, u := len(f.ports), set|c.set
			if f.mergePorts(lo, hi, int(c.lo), int(c.hi)) &&
				(!f.c.RequireConvex || f.g.IsConvex(f.nodeSet(f.tmp, u))) {
				f.sets = append(f.sets, u)
				if len(f.sets) > maxFamily || !f.unite(v, u, near|c.near, mid, len(f.ports), outs+c.outs) {
					return false
				}
			}
			f.ports = f.ports[:mid]
		}
	}
	return true
}

// mergePorts appends the union of the ascending port lists ports[a:ae]
// and ports[b:be] to ports, and reports whether it fits the input
// budget; it stops early when it does not.
func (f *famSearcher) mergePorts(a, ae, b, be int) bool {
	for n := 0; a < ae || b < be; n++ {
		if n == f.c.MaxInputs {
			return false
		}
		switch {
		case b == be || (a < ae && f.ports[a] < f.ports[b]):
			f.ports = append(f.ports, f.ports[a])
			a++
		case a == ae || f.ports[b] < f.ports[a]:
			f.ports = append(f.ports, f.ports[b])
			b++
		default:
			f.ports = append(f.ports, f.ports[a])
			a, b = a+1, b+1
		}
	}
	return true
}

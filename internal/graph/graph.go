package graph

import (
	"fmt"
)

// NodeID identifies a node within a single Graph. IDs are dense and
// assigned in insertion order starting at 0.
type NodeID int

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Role classifies a node with respect to the partitioning problem.
type Role uint8

const (
	// RoleInner marks a compute block: a candidate for partitioning.
	RoleInner Role = iota
	// RolePrimaryInput marks a sensor block. Primary inputs have no
	// input ports and are never partitioned.
	RolePrimaryInput
	// RolePrimaryOutput marks an output block (LED, buzzer, relay).
	// Primary outputs have no output ports and are never partitioned.
	RolePrimaryOutput
)

// String returns a short human-readable role name.
func (r Role) String() string {
	switch r {
	case RoleInner:
		return "inner"
	case RolePrimaryInput:
		return "input"
	case RolePrimaryOutput:
		return "output"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Port identifies one port of one node. Which side (input or output) it
// names is determined by context.
type Port struct {
	Node NodeID
	Pin  int
}

// String formats the port as "n3.1".
func (p Port) String() string { return fmt.Sprintf("n%d.%d", p.Node, p.Pin) }

// Less orders ports by node then pin, for deterministic iteration.
func (p Port) Less(q Port) bool {
	if p.Node != q.Node {
		return p.Node < q.Node
	}
	return p.Pin < q.Pin
}

// Edge is a directed wire from an output port to an input port.
type Edge struct {
	From Port // output port of the source node
	To   Port // input port of the destination node
}

// String formats the edge as "n1.0->n2.1".
func (e Edge) String() string { return fmt.Sprintf("%s->%s", e.From, e.To) }

// node is the internal node record.
type node struct {
	name string
	role Role
	// pinned marks an inner node that must not be absorbed into a
	// partition (e.g. a communication block physically tied to a
	// location). Pinned nodes still count as inner blocks.
	pinned bool
	nin    int
	nout   int

	// Adjacency, maintained by Connect. The hot partitioning paths
	// (internal/core) walk edges and neighbors of a node millions of
	// times per run, so the edges live in flat slices; the per-pin
	// views (Driver, OutEdges) are filtered from them.
	//
	// inAdj lists all edges entering the node, ordered by input pin
	// (at most one per pin). outAdj lists all edges leaving the node,
	// ordered by output pin then insertion order. pred and succ list
	// the distinct neighbor IDs in ascending order.
	inAdj  []Edge
	outAdj []Edge
	pred   []NodeID
	succ   []NodeID
}

// Graph is a mutable port-aware DAG. The zero value is an empty graph
// ready for use. Graph is not safe for concurrent mutation.
type Graph struct {
	nodes  []node
	byName map[string]NodeID
	edges  int

	// Scratch space for the per-Connect cycle check, reused across
	// calls so building an n-edge design costs O(n) allocations
	// instead of O(n) per edge. Guarded by the same single-mutator
	// rule as the rest of the struct.
	scratchSeen  []bool
	scratchStack []NodeID

	// A node has at most one in-edge and one predecessor per input
	// pin, so AddNode carves its inAdj and pred slices, at capacity
	// nin, from these shared chunks instead of growing two slices per
	// node edge by edge.
	inSlab   []Edge
	predSlab []NodeID
}

// New returns an empty graph. Equivalent to new(Graph); provided for
// symmetry with the rest of the repository.
func New() *Graph { return &Graph{} }

// AddNode appends a node and returns its ID. Names must be unique and
// non-empty; port counts must be non-negative and consistent with the
// role (primary inputs take no inputs, primary outputs drive no
// outputs).
func (g *Graph) AddNode(name string, role Role, nin, nout int) (NodeID, error) {
	if name == "" {
		return InvalidNode, fmt.Errorf("graph: empty node name")
	}
	if _, dup := g.byName[name]; dup {
		return InvalidNode, fmt.Errorf("graph: duplicate node name %q", name)
	}
	if nin < 0 || nout < 0 {
		return InvalidNode, fmt.Errorf("graph: node %q: negative port count", name)
	}
	if role == RolePrimaryInput && nin != 0 {
		return InvalidNode, fmt.Errorf("graph: primary input %q must have 0 input ports, got %d", name, nin)
	}
	if role == RolePrimaryOutput && nout != 0 {
		return InvalidNode, fmt.Errorf("graph: primary output %q must have 0 output ports, got %d", name, nout)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{name: name, role: role, nin: nin, nout: nout,
		inAdj: carve(&g.inSlab, nin), pred: carve(&g.predSlab, nin)})
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
	}
	g.byName[name] = id
	return id, nil
}

// carve returns an empty slice of capacity n cut from the chunk *slab,
// starting a new chunk when the current one is short.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, 64))
	}
	start := len(*slab)
	*slab = (*slab)[:start+n]
	return (*slab)[start : start : start+n]
}

// Grow reserves room for n more nodes, so building a graph of known
// size does not reallocate its node table as it goes.
func (g *Graph) Grow(n int) {
	if free := cap(g.nodes) - len(g.nodes); free < n {
		g.nodes = append(make([]node, 0, len(g.nodes)+n), g.nodes...)
	}
	if g.byName == nil {
		g.byName = make(map[string]NodeID, n)
	}
}

// MustAddNode is AddNode that panics on error; intended for tests and
// for programmatically constructed design libraries whose inputs are
// known valid.
func (g *Graph) MustAddNode(name string, role Role, nin, nout int) NodeID {
	id, err := g.AddNode(name, role, nin, nout)
	if err != nil {
		panic(err)
	}
	return id
}

// Connect adds an edge from output pin fromPin of node from to input pin
// toPin of node to. It rejects out-of-range endpoints, double-driven
// input pins, self-loops, and edges that would create a cycle.
func (g *Graph) Connect(from NodeID, fromPin int, to NodeID, toPin int) error {
	if err := g.checkPort(from, fromPin, false); err != nil {
		return err
	}
	if err := g.checkPort(to, toPin, true); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %q", g.nodes[from].name)
	}
	if g.driver(to, toPin) != nil {
		return fmt.Errorf("graph: input pin %d of node %q is already driven", toPin, g.nodes[to].name)
	}
	// Reject cycles eagerly: an edge from->to is safe iff `from` is not
	// reachable from `to`.
	if g.reaches(to, from) {
		return fmt.Errorf("graph: edge %q->%q would create a cycle", g.nodes[from].name, g.nodes[to].name)
	}
	e := Edge{From: Port{from, fromPin}, To: Port{to, toPin}}
	g.edges++

	// Maintain the adjacency index incrementally, preserving the
	// documented orders (inAdj by input pin; outAdj by output pin then
	// insertion; pred/succ ascending and distinct).
	src, dst := &g.nodes[from], &g.nodes[to]
	dst.inAdj = insertEdgeAt(dst.inAdj, e, func(x Edge) bool { return x.To.Pin > toPin })
	src.outAdj = insertEdgeAt(src.outAdj, e, func(x Edge) bool { return x.From.Pin > fromPin })
	dst.pred = insertID(dst.pred, from)
	src.succ = insertID(src.succ, to)
	return nil
}

// insertEdgeAt inserts e before the first element satisfying after,
// keeping the slice ordered.
func insertEdgeAt(s []Edge, e Edge, after func(Edge) bool) []Edge {
	i := len(s)
	for j, x := range s {
		if after(x) {
			i = j
			break
		}
	}
	s = append(s, Edge{})
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// insertID inserts id into the ascending slice if absent.
func insertID(s []NodeID, id NodeID) []NodeID {
	i := len(s)
	for j, x := range s {
		if x == id {
			return s
		}
		if x > id {
			i = j
			break
		}
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// MustConnect is Connect that panics on error.
func (g *Graph) MustConnect(from NodeID, fromPin int, to NodeID, toPin int) {
	if err := g.Connect(from, fromPin, to, toPin); err != nil {
		panic(err)
	}
}

func (g *Graph) checkPort(n NodeID, pin int, input bool) error {
	if !g.Valid(n) {
		return fmt.Errorf("graph: invalid node id %d", n)
	}
	nd := &g.nodes[n]
	limit := nd.nout
	side := "output"
	if input {
		limit = nd.nin
		side = "input"
	}
	if pin < 0 || pin >= limit {
		return fmt.Errorf("graph: node %q has no %s pin %d (has %d)", nd.name, side, pin, limit)
	}
	return nil
}

// reaches reports whether dst is reachable from src by directed edges.
func (g *Graph) reaches(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	if cap(g.scratchSeen) < len(g.nodes) {
		g.scratchSeen = make([]bool, len(g.nodes))
	}
	seen := g.scratchSeen[:len(g.nodes)]
	for i := range seen {
		seen[i] = false
	}
	stack := append(g.scratchStack[:0], src)
	defer func() { g.scratchStack = stack[:0] }()
	seen[src] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.nodes[n].succ {
			if m == dst {
				return true
			}
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

// Valid reports whether id names a node of g.
func (g *Graph) Valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Name returns the node's unique name.
func (g *Graph) Name(id NodeID) string { return g.nodes[id].name }

// Role returns the node's role.
func (g *Graph) Role(id NodeID) Role { return g.nodes[id].role }

// NumIn returns the node's input port count.
func (g *Graph) NumIn(id NodeID) int { return g.nodes[id].nin }

// NumOut returns the node's output port count.
func (g *Graph) NumOut(id NodeID) int { return g.nodes[id].nout }

// Lookup returns the node with the given name, or InvalidNode.
func (g *Graph) Lookup(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// Driver returns the edge driving input pin of node n, or nil if the
// pin is unconnected.
func (g *Graph) Driver(n NodeID, pin int) *Edge {
	e := g.driver(n, pin)
	if e == nil {
		return nil
	}
	ec := *e
	return &ec
}

// driver returns the in-edge of node n on input pin, or nil.
func (g *Graph) driver(n NodeID, pin int) *Edge {
	in := g.nodes[n].inAdj
	for i := range in {
		if in[i].To.Pin == pin {
			return &in[i]
		}
	}
	return nil
}

// OutEdges returns the edges leaving output pin of node n, in insertion
// order. The returned slice is a copy.
func (g *Graph) OutEdges(n NodeID, pin int) []Edge {
	out := []Edge{}
	for _, e := range g.nodes[n].outAdj {
		if e.From.Pin == pin {
			out = append(out, e)
		}
	}
	return out
}

// InEdges returns all edges entering node n, ordered by input pin.
// The returned slice is a copy; hot paths should use InEdgesView.
func (g *Graph) InEdges(n NodeID) []Edge {
	src := g.nodes[n].inAdj
	if len(src) == 0 {
		return nil
	}
	return append([]Edge(nil), src...)
}

// AllOutEdges returns all edges leaving node n, ordered by output pin
// then insertion order. The returned slice is a copy; hot paths should
// use OutEdgesView.
func (g *Graph) AllOutEdges(n NodeID) []Edge {
	src := g.nodes[n].outAdj
	if len(src) == 0 {
		return nil
	}
	return append([]Edge(nil), src...)
}

// InEdgesView returns the edges entering node n ordered by input pin,
// sharing the graph's internal index. The slice must not be modified
// and is invalidated by Connect; it exists so the partitioning hot
// paths can walk adjacency without allocating.
func (g *Graph) InEdgesView(n NodeID) []Edge { return g.nodes[n].inAdj }

// OutEdgesView returns the edges leaving node n ordered by output pin
// then insertion order, sharing the graph's internal index. The slice
// must not be modified and is invalidated by Connect.
func (g *Graph) OutEdgesView(n NodeID) []Edge { return g.nodes[n].outAdj }

// PredecessorsView returns the distinct source nodes of edges into n in
// ascending ID order, sharing the graph's internal index. The slice
// must not be modified and is invalidated by Connect.
func (g *Graph) PredecessorsView(n NodeID) []NodeID { return g.nodes[n].pred }

// SuccessorsView returns the distinct destination nodes of edges out of
// n in ascending ID order, sharing the graph's internal index. The
// slice must not be modified and is invalidated by Connect.
func (g *Graph) SuccessorsView(n NodeID) []NodeID { return g.nodes[n].succ }

// Edges returns every edge of the graph ordered by source node, source
// pin, then insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for id := range g.nodes {
		out = append(out, g.AllOutEdges(NodeID(id))...)
	}
	return out
}

// NodeIDs returns every node ID in insertion order.
func (g *Graph) NodeIDs() []NodeID {
	out := make([]NodeID, len(g.nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// NodesWithRole returns the IDs of all nodes with the given role, in
// insertion order.
func (g *Graph) NodesWithRole(r Role) []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].role == r {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// InnerNodes returns the IDs of all inner (compute) nodes.
func (g *Graph) InnerNodes() []NodeID { return g.NodesWithRole(RoleInner) }

// SetPinned marks or unmarks an inner node as non-partitionable.
// Pinning a non-inner node is a no-op (sensors and outputs are never
// partitioned anyway).
func (g *Graph) SetPinned(id NodeID, pinned bool) {
	if g.Valid(id) && g.nodes[id].role == RoleInner {
		g.nodes[id].pinned = pinned
	}
}

// Pinned reports whether the node is excluded from partitioning.
func (g *Graph) Pinned(id NodeID) bool { return g.Valid(id) && g.nodes[id].pinned }

// PartitionableNodes returns the inner nodes that may join partitions
// (inner and not pinned), in insertion order.
func (g *Graph) PartitionableNodes() []NodeID { return g.AppendPartitionableNodes(nil) }

// AppendPartitionableNodes appends the partitionable nodes, in
// insertion order, to dst and returns the extended slice; an
// allocation-free PartitionableNodes for callers that reuse dst.
func (g *Graph) AppendPartitionableNodes(dst []NodeID) []NodeID {
	for i := range g.nodes {
		if nd := &g.nodes[i]; nd.role == RoleInner && !nd.pinned {
			dst = append(dst, NodeID(i))
		}
	}
	return dst
}

// PrimaryInputs returns the IDs of all sensor nodes.
func (g *Graph) PrimaryInputs() []NodeID { return g.NodesWithRole(RolePrimaryInput) }

// PrimaryOutputs returns the IDs of all output-block nodes.
func (g *Graph) PrimaryOutputs() []NodeID { return g.NodesWithRole(RolePrimaryOutput) }

// Indegree returns the number of driven input pins of node n.
func (g *Graph) Indegree(n NodeID) int { return len(g.nodes[n].inAdj) }

// Outdegree returns the total number of edges leaving node n (fan-out
// counts each destination separately).
func (g *Graph) Outdegree(n NodeID) int { return len(g.nodes[n].outAdj) }

// Predecessors returns the distinct source nodes of edges into n, in
// ascending ID order. The returned slice is a copy.
func (g *Graph) Predecessors(n NodeID) []NodeID {
	return append([]NodeID(nil), g.nodes[n].pred...)
}

// Successors returns the distinct destination nodes of edges out of n,
// in ascending ID order. The returned slice is a copy.
func (g *Graph) Successors(n NodeID) []NodeID {
	return append([]NodeID(nil), g.nodes[n].succ...)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:  make([]node, len(g.nodes)),
		byName: make(map[string]NodeID, len(g.byName)),
		edges:  g.edges,
	}
	for k, v := range g.byName {
		c.byName[k] = v
	}
	for i, nd := range g.nodes {
		cn := node{name: nd.name, role: nd.role, pinned: nd.pinned, nin: nd.nin, nout: nd.nout}
		cn.inAdj = append([]Edge(nil), nd.inAdj...)
		cn.outAdj = append([]Edge(nil), nd.outAdj...)
		cn.pred = append([]NodeID(nil), nd.pred...)
		cn.succ = append([]NodeID(nil), nd.succ...)
		c.nodes[i] = cn
	}
	return c
}

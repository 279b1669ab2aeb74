package core

import (
	"repro/internal/graph"
)

// portIndex assigns each output port of a graph a dense integer, so
// per-port demand counters can live in flat arrays instead of maps.
// Both components of a partition's I/O demand are sets of *output*
// ports: the external driver ports feeding members (Inputs) and the
// member ports feeding non-members (Outputs). It also holds the two
// static port tables rankOf reads instead of a node's edge lists: each
// node's distinct driver ports, and each port's consumer count.
type portIndex struct {
	base []int32 // per node: first port id of its output ports; base[NumNodes] = n
	n    int     // total output ports
	// drivers[drvAt[id]:drvAt[id+1]] are the distinct output ports
	// driving id's inputs, in order of first input pin.
	drivers []driver
	drvAt   []int32
	cons    []int32 // per port: edges leaving it
}

// driver is one distinct output port driving a node's inputs.
type driver struct {
	node graph.NodeID // the port's node
	port int32        // the port's id
	cnt  int32        // the driven node's in-edges from this port
}

// number numbers g's output ports, reusing px's storage; the driver
// and consumer tables are left as they were.
func (px *portIndex) number(g *graph.Graph) {
	nn := g.NumNodes()
	px.base = sized(px.base, nn+1)
	n := int32(0)
	for id := range nn {
		px.base[id] = n
		n += int32(g.NumOut(graph.NodeID(id)))
	}
	px.base[nn], px.n = n, int(n)
}

// index numbers g's output ports and builds the driver and consumer
// tables, reusing px's storage.
func (px *portIndex) index(g *graph.Graph) {
	px.number(g)
	nn := g.NumNodes()
	px.drvAt = sized(px.drvAt, nn+1)
	px.drivers = px.drivers[:0]
	px.cons = sized(px.cons, px.n)
	for id := range nn {
		at := len(px.drivers)
		px.drvAt[id] = int32(at)
	edges:
		for _, e := range g.InEdgesView(graph.NodeID(id)) {
			p := px.id(e.From)
			px.cons[p]++
			for k := at; k < len(px.drivers); k++ {
				if px.drivers[k].port == p {
					px.drivers[k].cnt++
					continue edges
				}
			}
			px.drivers = append(px.drivers, driver{node: e.From.Node, port: p, cnt: 1})
		}
	}
	px.drvAt[nn] = int32(len(px.drivers))
}

func (px *portIndex) id(p graph.Port) int32 { return px.base[p.Node] + int32(p.Pin) }

// driversOf returns id's distinct driver ports.
func (px *portIndex) driversOf(id graph.NodeID) []driver {
	return px.drivers[px.drvAt[id]:px.drvAt[id+1]]
}

// Evaluator maintains the I/O demand of one candidate partition
// incrementally: adding or removing a member costs O(degree of the
// member) instead of the O(|partition| + |edges|) full recount that
// PartitionIO performs, and no memory is allocated per update. It is
// the shared fit-check engine of PareDown's pare loop, the aggregation
// merger, and (in its permanent-demand variant, see exhaustive.go) the
// exhaustive searcher.
//
// Invariants, matching PartitionIO exactly:
//
//   - extIn[p] is the number of edges from external output port p into
//     members; inputs counts ports with extIn[p] > 0.
//   - outLv[p] is the number of edges from member output port p to
//     non-members; outputs counts ports with outLv[p] > 0.
//
// It also keeps, for every node, inMem (its in-edges from members) and
// outMem (its out-edges to members). A member is a border block, in
// the paper's sense, exactly when one of the two is zero.
type Evaluator struct {
	g       *graph.Graph
	px      portIndex
	members graph.NodeSet
	extIn   []int32
	outLv   []int32
	inMem   []int32
	outMem  []int32
	inputs  int
	outputs int
}

// NewEvaluator returns an empty evaluator over g.
func NewEvaluator(g *graph.Graph) *Evaluator {
	ev := &Evaluator{members: graph.NewNodeSet()}
	ev.bind(g)
	return ev
}

// bind makes ev an empty evaluator over g, reusing its storage.
func (ev *Evaluator) bind(g *graph.Graph) {
	ev.g = g
	ev.px.index(g)
	ev.extIn = sized(ev.extIn, ev.px.n)
	ev.outLv = sized(ev.outLv, ev.px.n)
	ev.inMem = sized(ev.inMem, g.NumNodes())
	ev.outMem = sized(ev.outMem, g.NumNodes())
	ev.Reset()
}

// Reset empties the candidate, keeping the allocated storage.
func (ev *Evaluator) Reset() {
	ev.members.Clear()
	clear(ev.extIn)
	clear(ev.outLv)
	clear(ev.inMem)
	clear(ev.outMem)
	ev.inputs, ev.outputs = 0, 0
}

// Add inserts id into the candidate, updating the demand in O(deg(id)).
func (ev *Evaluator) Add(id graph.NodeID) {
	if ev.members.Has(id) {
		return
	}
	for _, e := range ev.g.InEdgesView(id) {
		p := ev.px.id(e.From)
		ev.outMem[e.From.Node]++
		if ev.members.Has(e.From.Node) {
			// The member port stops feeding a non-member via this edge.
			ev.outLv[p]--
			if ev.outLv[p] == 0 {
				ev.outputs--
			}
		} else {
			ev.extIn[p]++
			if ev.extIn[p] == 1 {
				ev.inputs++
			}
		}
	}
	for _, e := range ev.g.OutEdgesView(id) {
		p := ev.px.id(e.From)
		ev.inMem[e.To.Node]++
		if ev.members.Has(e.To.Node) {
			// id stops being an external driver of this member.
			ev.extIn[p]--
			if ev.extIn[p] == 0 {
				ev.inputs--
			}
		} else {
			ev.outLv[p]++
			if ev.outLv[p] == 1 {
				ev.outputs++
			}
		}
	}
	ev.members.Add(id)
}

// Remove deletes id from the candidate, updating the demand in
// O(deg(id)).
func (ev *Evaluator) Remove(id graph.NodeID) {
	if !ev.members.Has(id) {
		return
	}
	ev.members.Remove(id)
	for _, e := range ev.g.InEdgesView(id) {
		p := ev.px.id(e.From)
		ev.outMem[e.From.Node]--
		if ev.members.Has(e.From.Node) {
			// The member port now feeds a non-member (id) via this edge.
			ev.outLv[p]++
			if ev.outLv[p] == 1 {
				ev.outputs++
			}
		} else {
			ev.extIn[p]--
			if ev.extIn[p] == 0 {
				ev.inputs--
			}
		}
	}
	for _, e := range ev.g.OutEdgesView(id) {
		p := ev.px.id(e.From)
		ev.inMem[e.To.Node]--
		if ev.members.Has(e.To.Node) {
			// id becomes an external driver of this member.
			ev.extIn[p]++
			if ev.extIn[p] == 1 {
				ev.inputs++
			}
		} else {
			ev.outLv[p]--
			if ev.outLv[p] == 0 {
				ev.outputs--
			}
		}
	}
}

// AddSet inserts every member of set.
func (ev *Evaluator) AddSet(set graph.NodeSet) { set.ForEach(ev.Add) }

// IO returns the candidate's current I/O demand.
func (ev *Evaluator) IO() IO { return IO{Inputs: ev.inputs, Outputs: ev.outputs} }

// Len returns the candidate's cardinality.
func (ev *Evaluator) Len() int { return ev.members.Len() }

// Has reports candidate membership.
func (ev *Evaluator) Has(id graph.NodeID) bool { return ev.members.Has(id) }

// Members returns the live candidate set. The caller must not mutate
// it directly (use Add/Remove); Clone before storing.
func (ev *Evaluator) Members() graph.NodeSet { return ev.members }

// Fits reports whether the candidate satisfies the I/O budget (and
// convexity when required), equivalently to Fits(g, Members(), c) but
// in O(1) plus the optional convexity walk.
func (ev *Evaluator) Fits(c Constraints) bool {
	if ev.inputs > c.MaxInputs || ev.outputs > c.MaxOutputs {
		return false
	}
	if c.RequireConvex && !ev.g.IsConvex(ev.members) {
		return false
	}
	return true
}

package netlist

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/graph"
)

// Design is a named eBlock network under construction or analysis.
type Design struct {
	Name string

	reg   *block.Registry
	g     *graph.Graph
	insts []instance // indexed by graph.NodeID
	// sharedGraph marks g as shared with a design Derive made from or
	// for this one: the first block or wire added to either design
	// copies the graph first.
	sharedGraph atomic.Bool
}

// instance is per-node data beyond the graph structure.
type instance struct {
	typ    *block.Type
	params map[string]int64
	// prog, when non-nil, overrides the type's behavior program. The
	// synthesizer installs merged programs on programmable instances
	// this way.
	prog *behavior.Program
}

// NewDesign creates an empty design using the given block catalog.
func NewDesign(name string, reg *block.Registry) *Design {
	return &Design{Name: name, reg: reg, g: graph.New()}
}

// Registry returns the design's block catalog.
func (d *Design) Registry() *block.Registry { return d.reg }

// Graph returns the underlying DAG. Callers must treat it as read-only;
// use AddBlock/Connect to mutate the design.
func (d *Design) Graph() *graph.Graph { return d.g }

// Derive returns a copy of d with the same name, catalog, blocks,
// parameters, programs and wires, for patching parameters and
// programs. The copy shares d's graph until either design adds a block
// or a wire, so deriving costs O(blocks) and rebuilds nothing.
func (d *Design) Derive() *Design {
	d.sharedGraph.Store(true)
	nd := &Design{Name: d.Name, reg: d.reg, g: d.g, insts: append([]instance(nil), d.insts...)}
	nd.sharedGraph.Store(true)
	return nd
}

// ownGraph gives d its own copy of a graph it shares.
func (d *Design) ownGraph() {
	if d.sharedGraph.Load() {
		d.g = d.g.Clone()
		d.sharedGraph.Store(false)
	}
}

// Grow reserves room for n more blocks, so building a design of known
// size does not reallocate as it goes.
func (d *Design) Grow(n int) {
	d.ownGraph()
	d.g.Grow(n)
	if free := cap(d.insts) - len(d.insts); free < n {
		d.insts = append(make([]instance, 0, len(d.insts)+n), d.insts...)
	}
}

// AddBlock adds an instance of the named catalog type.
func (d *Design) AddBlock(name, typeName string) (graph.NodeID, error) {
	return d.AddBlockWithParams(name, typeName, nil)
}

// AddBlockWithParams adds an instance with parameter overrides. Unknown
// parameter names are rejected.
func (d *Design) AddBlockWithParams(name, typeName string, params map[string]int64) (graph.NodeID, error) {
	t := d.reg.Lookup(typeName)
	if t == nil {
		return graph.InvalidNode, fmt.Errorf("netlist: unknown block type %q", typeName)
	}
	if err := checkParams(t, params); err != nil {
		return graph.InvalidNode, err
	}
	d.ownGraph()
	role := graph.RoleInner
	switch t.Kind {
	case block.Sensor:
		role = graph.RolePrimaryInput
	case block.Output:
		role = graph.RolePrimaryOutput
	}
	id, err := d.g.AddNode(name, role, t.NumIn(), t.NumOut())
	if err != nil {
		return graph.InvalidNode, err
	}
	if t.Kind == block.Communication {
		// Communication blocks (wireless links, repeaters) are tied to
		// a physical location and can never be absorbed into a
		// programmable block.
		d.g.SetPinned(id, true)
	}
	d.insts = append(d.insts, instance{typ: t, params: copyParams(params)})
	return id, nil
}

// SetParams replaces the instance's parameter overrides. Unknown
// parameter names are rejected, as by AddBlockWithParams.
func (d *Design) SetParams(id graph.NodeID, params map[string]int64) error {
	if err := checkParams(d.insts[id].typ, params); err != nil {
		return err
	}
	d.insts[id].params = copyParams(params)
	return nil
}

func checkParams(t *block.Type, params map[string]int64) error {
	for p := range params {
		if _, ok := t.ParamDefault(p); !ok {
			return fmt.Errorf("netlist: block type %q has no parameter %q", t.Name, p)
		}
	}
	return nil
}

func copyParams(params map[string]int64) map[string]int64 {
	if len(params) == 0 {
		return nil
	}
	out := make(map[string]int64, len(params))
	for k, v := range params {
		out[k] = v
	}
	return out
}

// MustAddBlock is AddBlock that panics on error.
func (d *Design) MustAddBlock(name, typeName string) graph.NodeID {
	id, err := d.AddBlock(name, typeName)
	if err != nil {
		panic(err)
	}
	return id
}

// MustAddBlockWithParams is AddBlockWithParams that panics on error.
func (d *Design) MustAddBlockWithParams(name, typeName string, params map[string]int64) graph.NodeID {
	id, err := d.AddBlockWithParams(name, typeName, params)
	if err != nil {
		panic(err)
	}
	return id
}

// Connect wires fromBlock's named output port to toBlock's named input
// port.
func (d *Design) Connect(fromBlock, fromPort, toBlock, toPort string) error {
	from := d.g.Lookup(fromBlock)
	if from == graph.InvalidNode {
		return fmt.Errorf("netlist: unknown block %q", fromBlock)
	}
	to := d.g.Lookup(toBlock)
	if to == graph.InvalidNode {
		return fmt.Errorf("netlist: unknown block %q", toBlock)
	}
	fp := d.insts[from].typ.OutputPin(fromPort)
	if fp < 0 {
		return fmt.Errorf("netlist: block %q (%s) has no output port %q", fromBlock, d.insts[from].typ.Name, fromPort)
	}
	tp := d.insts[to].typ.InputPin(toPort)
	if tp < 0 {
		return fmt.Errorf("netlist: block %q (%s) has no input port %q", toBlock, d.insts[to].typ.Name, toPort)
	}
	d.ownGraph()
	return d.g.Connect(from, fp, to, tp)
}

// ConnectPins wires output pin fromPin of block from to input pin
// toPin of block to: Connect by ID and pin number.
func (d *Design) ConnectPins(from graph.NodeID, fromPin int, to graph.NodeID, toPin int) error {
	d.ownGraph()
	return d.g.Connect(from, fromPin, to, toPin)
}

// MustConnect is Connect that panics on error.
func (d *Design) MustConnect(fromBlock, fromPort, toBlock, toPort string) {
	if err := d.Connect(fromBlock, fromPort, toBlock, toPort); err != nil {
		panic(err)
	}
}

// Type returns the catalog type of the instance.
func (d *Design) Type(id graph.NodeID) *block.Type { return d.insts[id].typ }

// Params returns the instance's parameter overrides (possibly nil). The
// returned map must not be modified.
func (d *Design) Params(id graph.NodeID) map[string]int64 { return d.insts[id].params }

// Param returns the effective value of a parameter: the instance
// override if present, otherwise the type default.
func (d *Design) Param(id graph.NodeID, name string) (int64, bool) {
	if v, ok := d.insts[id].params[name]; ok {
		return v, true
	}
	return d.insts[id].typ.ParamDefault(name)
}

// Program returns the effective behavior program of the instance: the
// per-instance override if one was installed, else the type's program
// (nil for sensors and output blocks).
func (d *Design) Program(id graph.NodeID) *behavior.Program {
	if d.insts[id].prog != nil {
		return d.insts[id].prog
	}
	return d.insts[id].typ.Program
}

// SetProgram installs a per-instance behavior override; the synthesizer
// uses it to give each programmable block its merged program. The
// program's ports must match the instance type's ports.
func (d *Design) SetProgram(id graph.NodeID, p *behavior.Program) error {
	t := d.insts[id].typ
	if len(p.Inputs) != t.NumIn() || len(p.Outputs) != t.NumOut() {
		return fmt.Errorf("netlist: program ports %dx%d do not match type %s (%dx%d)",
			len(p.Inputs), len(p.Outputs), t.Name, t.NumIn(), t.NumOut())
	}
	for i, name := range t.Inputs {
		if p.Inputs[i] != name {
			return fmt.Errorf("netlist: program input %d is %q, want %q", i, p.Inputs[i], name)
		}
	}
	for i, name := range t.Outputs {
		if p.Outputs[i] != name {
			return fmt.Errorf("netlist: program output %d is %q, want %q", i, p.Outputs[i], name)
		}
	}
	d.insts[id].prog = p
	return nil
}

// HasProgramOverride reports whether SetProgram was called on id.
func (d *Design) HasProgramOverride(id graph.NodeID) bool { return d.insts[id].prog != nil }

// InnerBlocks returns the inner (compute) nodes, i.e. the partitioning
// candidates, in insertion order.
func (d *Design) InnerBlocks() []graph.NodeID { return d.g.InnerNodes() }

// Sensors returns the primary-input nodes.
func (d *Design) Sensors() []graph.NodeID { return d.g.PrimaryInputs() }

// Outputs returns the primary-output nodes.
func (d *Design) Outputs() []graph.NodeID { return d.g.PrimaryOutputs() }

// Validate checks that the design is a well-formed eBlock system:
// every input pin of every compute and output block is driven, and the
// design has at least one sensor and one output block. (The graph layer
// already guarantees acyclicity and single drivers.)
func (d *Design) Validate() error {
	sensors, outputs := 0, 0
	for i := range d.insts {
		switch d.g.Role(graph.NodeID(i)) {
		case graph.RolePrimaryInput:
			sensors++
		case graph.RolePrimaryOutput:
			outputs++
		}
	}
	if sensors == 0 {
		return fmt.Errorf("netlist: design %q has no sensor blocks", d.Name)
	}
	if outputs == 0 {
		return fmt.Errorf("netlist: design %q has no output blocks", d.Name)
	}
	for i := range d.insts {
		id := graph.NodeID(i)
		// Each input pin has at most one driver, so a block is fully
		// driven iff it has as many in-edges as input pins.
		// Programmable blocks may leave physical pins unconnected (a
		// partition rarely uses the full port budget); unused pins
		// read as constant 0.
		if d.insts[i].typ.Kind == block.Programmable || d.g.Indegree(id) == d.g.NumIn(id) {
			continue
		}
		for pin := 0; pin < d.g.NumIn(id); pin++ {
			if d.g.Driver(id, pin) == nil {
				return fmt.Errorf("netlist: input port %q of block %q is undriven",
					d.insts[i].typ.Inputs[pin], d.g.Name(id))
			}
		}
	}
	return nil
}

// Stats summarizes a design for reporting.
type Stats struct {
	Sensors      int
	Outputs      int
	Inner        int
	Programmable int
	Edges        int
	Depth        int
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	s := Stats{
		Sensors: len(d.Sensors()),
		Outputs: len(d.Outputs()),
		Inner:   len(d.InnerBlocks()),
		Edges:   d.g.NumEdges(),
	}
	for _, id := range d.InnerBlocks() {
		if d.insts[id].typ.Kind == block.Programmable {
			s.Programmable++
		}
	}
	if depth, err := d.g.Depth(); err == nil {
		s.Depth = depth
	}
	return s
}

// BlockNames returns all instance names sorted.
func (d *Design) BlockNames() []string {
	out := make([]string, 0, d.g.NumNodes())
	for _, id := range d.g.NodeIDs() {
		out = append(out, d.g.Name(id))
	}
	sort.Strings(out)
	return out
}

package core

import (
	"testing"

	"repro/internal/block"
	"repro/internal/graph"
)

// chainDesign builds s -> v0 -> v1 -> ... -> v(n-1) -> o.
func chainDesign(n int) *graph.Graph {
	g := graph.New()
	s := g.MustAddNode("s", graph.RolePrimaryInput, 0, 1)
	prev := s
	for i := 0; i < n; i++ {
		v := g.MustAddNode("v"+itoa(i), graph.RoleInner, 1, 1)
		g.MustConnect(prev, 0, v, 0)
		prev = v
	}
	o := g.MustAddNode("o", graph.RolePrimaryOutput, 1, 0)
	g.MustConnect(prev, 0, o, 0)
	return g
}

// parallelGates builds k independent 2-input gates, each fed by two
// private sensors and driving a private output: the pairwise-infeasible
// worst case of Section 4.2 (any two gates need 4 inputs).
func parallelGates(k int) *graph.Graph {
	g := graph.New()
	for i := 0; i < k; i++ {
		s1 := g.MustAddNode("s"+itoa(i)+"a", graph.RolePrimaryInput, 0, 1)
		s2 := g.MustAddNode("s"+itoa(i)+"b", graph.RolePrimaryInput, 0, 1)
		v := g.MustAddNode("g"+itoa(i), graph.RoleInner, 2, 1)
		o := g.MustAddNode("o"+itoa(i), graph.RolePrimaryOutput, 1, 0)
		g.MustConnect(s1, 0, v, 0)
		g.MustConnect(s2, 0, v, 1)
		g.MustConnect(v, 0, o, 0)
	}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func TestPartitionIOChain(t *testing.T) {
	g := chainDesign(3)
	v0, v1, v2 := g.Lookup("v0"), g.Lookup("v1"), g.Lookup("v2")
	cases := []struct {
		set  graph.NodeSet
		want IO
	}{
		{graph.NewNodeSet(v0), IO{1, 1}},
		{graph.NewNodeSet(v0, v1), IO{1, 1}},
		{graph.NewNodeSet(v0, v1, v2), IO{1, 1}},
		{graph.NewNodeSet(v0, v2), IO{2, 2}}, // non-contiguous pair
		{graph.NewNodeSet(v1), IO{1, 1}},
	}
	for _, tc := range cases {
		if got := PartitionIO(g, tc.set); got != tc.want {
			t.Errorf("IO(%v) = %+v, want %+v", tc.set, got, tc.want)
		}
	}
}

func TestPartitionIOFanout(t *testing.T) {
	// One sensor fans out to two gates inside the candidate: costs ONE
	// partition input (distinct external driver port).
	g := graph.New()
	s := g.MustAddNode("s", graph.RolePrimaryInput, 0, 1)
	a := g.MustAddNode("a", graph.RoleInner, 1, 1)
	b := g.MustAddNode("b", graph.RoleInner, 1, 1)
	o1 := g.MustAddNode("o1", graph.RolePrimaryOutput, 1, 0)
	o2 := g.MustAddNode("o2", graph.RolePrimaryOutput, 1, 0)
	g.MustConnect(s, 0, a, 0)
	g.MustConnect(s, 0, b, 0)
	g.MustConnect(a, 0, o1, 0)
	g.MustConnect(b, 0, o2, 0)
	io := PartitionIO(g, graph.NewNodeSet(a, b))
	if io != (IO{Inputs: 1, Outputs: 2}) {
		t.Fatalf("fan-in IO = %+v", io)
	}
	// A member port fanning out to two external consumers costs ONE
	// partition output.
	g2 := graph.New()
	s2 := g2.MustAddNode("s", graph.RolePrimaryInput, 0, 1)
	x := g2.MustAddNode("x", graph.RoleInner, 1, 1)
	y := g2.MustAddNode("y", graph.RoleInner, 1, 1)
	p := g2.MustAddNode("p", graph.RolePrimaryOutput, 1, 0)
	q := g2.MustAddNode("q", graph.RolePrimaryOutput, 1, 0)
	g2.MustConnect(s2, 0, x, 0)
	g2.MustConnect(x, 0, y, 0)
	g2.MustConnect(y, 0, p, 0)
	g2.MustConnect(y, 0, q, 0)
	io2 := PartitionIO(g2, graph.NewNodeSet(x, y))
	if io2 != (IO{Inputs: 1, Outputs: 1}) {
		t.Fatalf("fan-out IO = %+v", io2)
	}
}

func TestFitsBudget(t *testing.T) {
	g := parallelGates(2)
	g0, g1 := g.Lookup("g0"), g.Lookup("g1")
	c := DefaultConstraints
	if !Fits(g, graph.NewNodeSet(g0), c) {
		t.Error("single 2-input gate should fit 2x2")
	}
	if Fits(g, graph.NewNodeSet(g0, g1), c) {
		t.Error("two independent gates (4 inputs) must not fit 2x2")
	}
	if !Fits(g, graph.NewNodeSet(g0, g1), Constraints{MaxInputs: 4, MaxOutputs: 2}) {
		t.Error("two gates should fit a 4x2 block")
	}
}

func TestConstraintsValidate(t *testing.T) {
	if err := (Constraints{}).Validate(); err == nil {
		t.Error("zero constraints accepted")
	}
	for _, c := range []Constraints{{MaxInputs: 65, MaxOutputs: 1}, {MaxInputs: 1, MaxOutputs: 65}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%dx%d accepted past the %d-port cap", c.MaxInputs, c.MaxOutputs, block.MaxProgPorts)
		}
	}
	for _, c := range []Constraints{DefaultConstraints, {MaxInputs: 64, MaxOutputs: 64}} {
		if err := c.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestResultValidate(t *testing.T) {
	g := chainDesign(4)
	v := func(i int) graph.NodeID { return g.Lookup("v" + itoa(i)) }
	good := &Result{
		Partitions: []graph.NodeSet{graph.NewNodeSet(v(0), v(1)), graph.NodeSet(graph.NewNodeSet(v(2), v(3)))},
	}
	good.Uncovered = uncoveredFrom(g, good.Partitions)
	if err := good.Validate(g, DefaultConstraints); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	if good.Cost() != 2 || good.Covered() != 4 {
		t.Errorf("cost=%d covered=%d", good.Cost(), good.Covered())
	}

	singleton := &Result{Partitions: []graph.NodeSet{graph.NewNodeSet(v(0))}}
	singleton.Uncovered = uncoveredFrom(g, singleton.Partitions)
	if err := singleton.Validate(g, DefaultConstraints); err == nil {
		t.Error("singleton partition validated")
	}

	overlap := &Result{Partitions: []graph.NodeSet{
		graph.NewNodeSet(v(0), v(1)), graph.NewNodeSet(v(1), v(2)),
	}}
	overlap.Uncovered = uncoveredFrom(g, overlap.Partitions)
	if err := overlap.Validate(g, DefaultConstraints); err == nil {
		t.Error("overlapping partitions validated")
	}

	wrongUncovered := &Result{
		Partitions: []graph.NodeSet{graph.NewNodeSet(v(0), v(1))},
		Uncovered:  nil, // v2, v3 missing
	}
	if err := wrongUncovered.Validate(g, DefaultConstraints); err == nil {
		t.Error("incomplete accounting validated")
	}

	s := g.PrimaryInputs()[0]
	withSensor := &Result{Partitions: []graph.NodeSet{graph.NewNodeSet(v(0), s)}}
	withSensor.Uncovered = uncoveredFrom(g, withSensor.Partitions)
	if err := withSensor.Validate(g, DefaultConstraints); err == nil {
		t.Error("partition with sensor validated")
	}
}

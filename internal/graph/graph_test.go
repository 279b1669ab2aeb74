package graph

import (
	"strings"
	"testing"
)

// chain builds s -> a -> b -> o and returns the graph plus IDs.
func chain(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New()
	s := g.MustAddNode("s", RolePrimaryInput, 0, 1)
	a := g.MustAddNode("a", RoleInner, 1, 1)
	b := g.MustAddNode("b", RoleInner, 1, 1)
	o := g.MustAddNode("o", RolePrimaryOutput, 1, 0)
	g.MustConnect(s, 0, a, 0)
	g.MustConnect(a, 0, b, 0)
	g.MustConnect(b, 0, o, 0)
	return g, s, a, b, o
}

func TestAddNodeValidation(t *testing.T) {
	g := New()
	if _, err := g.AddNode("", RoleInner, 1, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := g.AddNode("x", RoleInner, -1, 1); err == nil {
		t.Fatal("negative port count accepted")
	}
	if _, err := g.AddNode("x", RolePrimaryInput, 1, 1); err == nil {
		t.Fatal("primary input with inputs accepted")
	}
	if _, err := g.AddNode("x", RolePrimaryOutput, 1, 1); err == nil {
		t.Fatal("primary output with outputs accepted")
	}
	if _, err := g.AddNode("x", RoleInner, 2, 1); err != nil {
		t.Fatalf("valid node rejected: %v", err)
	}
	if _, err := g.AddNode("x", RoleInner, 2, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", RoleInner, 1, 1)
	b := g.MustAddNode("b", RoleInner, 1, 1)
	if err := g.Connect(a, 1, b, 0); err == nil {
		t.Fatal("out-of-range source pin accepted")
	}
	if err := g.Connect(a, 0, b, 1); err == nil {
		t.Fatal("out-of-range dest pin accepted")
	}
	if err := g.Connect(a, 0, a, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.Connect(NodeID(99), 0, b, 0); err == nil {
		t.Fatal("invalid node accepted")
	}
	if err := g.Connect(a, 0, b, 0); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.Connect(a, 0, b, 0); err == nil {
		t.Fatal("double-driven input accepted")
	}
	if err := g.Connect(b, 0, a, 0); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestFanout(t *testing.T) {
	g := New()
	s := g.MustAddNode("s", RolePrimaryInput, 0, 1)
	a := g.MustAddNode("a", RoleInner, 1, 1)
	b := g.MustAddNode("b", RoleInner, 1, 1)
	g.MustConnect(s, 0, a, 0)
	g.MustConnect(s, 0, b, 0)
	if got := len(g.OutEdges(s, 0)); got != 2 {
		t.Fatalf("fanout = %d, want 2", got)
	}
	if got := g.Outdegree(s); got != 2 {
		t.Fatalf("outdegree = %d, want 2", got)
	}
	if got := g.Indegree(a); got != 1 {
		t.Fatalf("indegree(a) = %d, want 1", got)
	}
}

func TestLookupAndAccessors(t *testing.T) {
	g, s, a, _, o := chain(t)
	if g.Lookup("a") != a {
		t.Fatal("lookup a failed")
	}
	if g.Lookup("zz") != InvalidNode {
		t.Fatal("lookup of missing name succeeded")
	}
	if g.Name(s) != "s" || g.Role(s) != RolePrimaryInput {
		t.Fatal("accessor mismatch for s")
	}
	if g.Role(o) != RolePrimaryOutput {
		t.Fatal("role mismatch for o")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("counts = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if len(g.InnerNodes()) != 2 || len(g.PrimaryInputs()) != 1 || len(g.PrimaryOutputs()) != 1 {
		t.Fatal("role partition counts wrong")
	}
}

func TestDriverAndEdges(t *testing.T) {
	g, s, a, b, _ := chain(t)
	d := g.Driver(a, 0)
	if d == nil || d.From.Node != s {
		t.Fatalf("driver(a) = %v", d)
	}
	_ = b
	if len(g.Edges()) != 3 {
		t.Fatalf("edges = %d", len(g.Edges()))
	}
	preds := g.Predecessors(b)
	if len(preds) != 1 || preds[0] != a {
		t.Fatalf("preds(b) = %v", preds)
	}
	succs := g.Successors(a)
	if len(succs) != 1 || succs[0] != b {
		t.Fatalf("succs(a) = %v", succs)
	}
}

func TestTopoSortChain(t *testing.T) {
	g, s, a, b, o := chain(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos[s] < pos[a] && pos[a] < pos[b] && pos[b] < pos[o]) {
		t.Fatalf("bad topo order %v", order)
	}
}

func TestLevels(t *testing.T) {
	// Diamond with a long arm: s -> a -> c, s -> b -> b2 -> c.
	g := New()
	s := g.MustAddNode("s", RolePrimaryInput, 0, 1)
	a := g.MustAddNode("a", RoleInner, 1, 1)
	b := g.MustAddNode("b", RoleInner, 1, 1)
	b2 := g.MustAddNode("b2", RoleInner, 1, 1)
	c := g.MustAddNode("c", RoleInner, 2, 1)
	o := g.MustAddNode("o", RolePrimaryOutput, 1, 0)
	g.MustConnect(s, 0, a, 0)
	g.MustConnect(s, 0, b, 0)
	g.MustConnect(b, 0, b2, 0)
	g.MustConnect(a, 0, c, 0)
	g.MustConnect(b2, 0, c, 1)
	g.MustConnect(c, 0, o, 0)
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := map[NodeID]int{s: 0, a: 1, b: 1, b2: 2, c: 3, o: 4}
	for n, w := range want {
		if lvl[n] != w {
			t.Errorf("level(%s) = %d, want %d", g.Name(n), lvl[n], w)
		}
	}
	d, err := g.Depth()
	if err != nil || d != 4 {
		t.Fatalf("depth = %d (%v), want 4", d, err)
	}
}

func TestLevelsMonotoneAlongEdges(t *testing.T) {
	g, _, _, _, _ := chain(t)
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if lvl[e.To.Node] <= lvl[e.From.Node] {
			t.Fatalf("level not increasing along %v", e)
		}
	}
}

func TestClone(t *testing.T) {
	g, _, a, b, _ := chain(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	x := c.MustAddNode("x", RoleInner, 1, 1)
	_ = x
	if g.NumNodes() == c.NumNodes() {
		t.Fatal("clone shares node storage")
	}
	if g.Lookup("x") != InvalidNode {
		t.Fatal("clone shares name index")
	}
	_, _ = a, b
}

func TestNodeSetOps(t *testing.T) {
	s := NewNodeSet(1, 2, 3)
	if s.Len() != 3 || !s.Has(2) || s.Has(9) {
		t.Fatal("basic set ops wrong")
	}
	c := s.Clone()
	c.Remove(2)
	if !s.Has(2) || c.Has(2) {
		t.Fatal("clone not independent")
	}
	if !s.Equal(NewNodeSet(3, 2, 1)) {
		t.Fatal("equal failed")
	}
	if s.Equal(c) {
		t.Fatal("unequal sets reported equal")
	}
	if !s.Intersects(NewNodeSet(3, 9)) || s.Intersects(NewNodeSet(9)) {
		t.Fatal("intersects wrong")
	}
	got := s.Sorted()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("sorted = %v", got)
	}
	if s.String() != "{n1 n2 n3}" {
		t.Fatalf("string = %q", s.String())
	}
}

func TestDOT(t *testing.T) {
	g, _, a, b, _ := chain(t)
	dot := g.DOT("chain", []NodeSet{NewNodeSet(a, b)})
	for _, want := range []string{"digraph", "cluster_0", "s#0", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
}

// TestPinViewsOverSharedStorage builds a presized graph whose nodes'
// in-edge and predecessor lists share backing chunks, and checks the
// per-pin views (Driver, OutEdges), the neighbor views, and that a
// clone and later edges on either side stay independent.
func TestPinViewsOverSharedStorage(t *testing.T) {
	g := New()
	g.Grow(6)
	s := g.MustAddNode("s", RolePrimaryInput, 0, 2)
	a := g.MustAddNode("a", RoleInner, 3, 2)
	b := g.MustAddNode("b", RoleInner, 2, 1)
	c := g.MustAddNode("c", RoleInner, 2, 1)
	o := g.MustAddNode("o", RolePrimaryOutput, 1, 0)
	g.MustConnect(s, 1, a, 2)
	g.MustConnect(s, 0, a, 0)
	g.MustConnect(a, 1, b, 1)
	g.MustConnect(a, 0, b, 0)
	g.MustConnect(a, 1, c, 0)
	g.MustConnect(b, 0, o, 0)

	if e := g.Driver(a, 1); e != nil {
		t.Fatalf("undriven pin a.1 has driver %v", e)
	}
	if e := g.Driver(a, 2); e == nil || e.From != (Port{s, 1}) {
		t.Fatalf("driver of a.2 = %v", e)
	}
	if err := g.Connect(s, 0, a, 2); err == nil {
		t.Fatal("second driver on a.2 accepted")
	}
	if got := g.OutEdges(a, 1); len(got) != 2 || got[0].To != (Port{b, 1}) || got[1].To != (Port{c, 0}) {
		t.Fatalf("OutEdges(a, 1) = %v, want insertion order b.1, c.0", got)
	}
	if got := g.OutEdges(o, 0); got == nil || len(got) != 0 {
		t.Fatalf("OutEdges of an output block = %#v, want empty", got)
	}
	if got := g.InEdgesView(a); len(got) != 2 || got[0].To.Pin != 0 || got[1].To.Pin != 2 {
		t.Fatalf("InEdgesView(a) = %v, want pin order", got)
	}
	if got := g.PredecessorsView(b); len(got) != 1 || got[0] != a {
		t.Fatalf("PredecessorsView(b) = %v", got)
	}

	cl := g.Clone()
	g.MustConnect(s, 0, c, 1)
	cl.MustConnect(a, 0, c, 1)
	if g.Driver(c, 1).From != (Port{s, 0}) || cl.Driver(c, 1).From != (Port{a, 0}) {
		t.Fatalf("clone shares edges: original %v, clone %v", g.Driver(c, 1), cl.Driver(c, 1))
	}
	if len(g.InEdgesView(b)) != 2 || len(g.InEdgesView(o)) != 1 || g.Indegree(c) != 2 {
		t.Fatal("connecting one node disturbed its neighbors' in-edge lists")
	}
}

// TestNodeSetCloneOneAllocation pins Clone's layout: a set whose
// highest member is below 1,024 is copied in one allocation, its words
// inside the header's, and every clone, of a set past that too, is
// independent of the original and can grow past its copied words.
func TestNodeSetCloneOneAllocation(t *testing.T) {
	for _, hi := range []NodeID{0, 100, 1023, 1024, 5000} {
		s := NewNodeSet(3, hi)
		s.Add(hi + 64)
		s.Remove(hi + 64) // a trailing zero word the clone need not keep
		allocs := testing.AllocsPerRun(10, func() { _ = s.Clone() })
		if want := 1.0; hi < 1024 && allocs != want {
			t.Errorf("cloning {3 %d} made %.0f allocations, want %.0f", hi, allocs, want)
		}
		c := s.Clone()
		c.Add(hi + 200)
		c.Remove(3)
		if !s.Has(3) || s.Has(hi+200) || !c.Has(hi) || !c.Has(hi+200) || c.Len() != 2 || s.Len() != 2 {
			t.Errorf("clone of {3 %d} is not independent: original %v, clone %v", hi, s, c)
		}
	}
}

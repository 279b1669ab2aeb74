package codegen

import (
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/graph"
	"repro/internal/netlist"
)

// twoGateDesign: s0, s1 -> and -> not -> led; partition {and, not}.
func twoGateDesign(t testing.TB) (*netlist.Design, graph.NodeSet) {
	t.Helper()
	d := netlist.NewDesign("two", block.Standard())
	d.MustAddBlock("s0", "Button")
	d.MustAddBlock("s1", "Button")
	and := d.MustAddBlock("and", "And2")
	not := d.MustAddBlock("not", "Not")
	d.MustAddBlock("led", "LED")
	d.MustConnect("s0", "y", "and", "a")
	d.MustConnect("s1", "y", "and", "b")
	d.MustConnect("and", "y", "not", "a")
	d.MustConnect("not", "y", "led", "a")
	return d, graph.NewNodeSet(and, not)
}

func TestMergeTwoGates(t *testing.T) {
	d, part := twoGateDesign(t)
	m, err := MergePartition(d, part)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumIn() != 2 || m.NumOut() != 1 {
		t.Fatalf("merged ports = %dx%d, want 2x1", m.NumIn(), m.NumOut())
	}
	if len(m.Members) != 2 {
		t.Fatalf("members = %v", m.Members)
	}
	// Level order: and (level 1) before not (level 2).
	g := d.Graph()
	if g.Name(m.Members[0]) != "and" || g.Name(m.Members[1]) != "not" {
		t.Fatalf("member order = %s, %s", g.Name(m.Members[0]), g.Name(m.Members[1]))
	}
	// The merged program reads in0/in1 and drives out0 via wires.
	text := behavior.Format(m.Program)
	for _, want := range []string{"input in0, in1;", "output out0;", "in0 && in1", "out0 = "} {
		if !strings.Contains(text, want) {
			t.Errorf("merged program missing %q:\n%s", want, text)
		}
	}
	// OutputMap exports not's output port.
	notID := g.Lookup("not")
	if m.OutputMap[0] != (graph.Port{Node: notID, Pin: 0}) {
		t.Fatalf("output map = %v", m.OutputMap)
	}
}

// mergedEnv is a tiny Env for direct evaluation of merged programs.
type mergedEnv struct {
	in    map[string]int64
	prev  map[string]int64
	out   map[string]int64
	state map[string]int64
	fired map[int]bool
	now   int64
	sched []int
}

func newMergedEnv(p *behavior.Program) *mergedEnv {
	e := &mergedEnv{
		in: map[string]int64{}, prev: map[string]int64{},
		out: map[string]int64{}, state: map[string]int64{}, fired: map[int]bool{},
	}
	for _, d := range p.States {
		e.state[d.Name] = d.Init
	}
	return e
}

func (e *mergedEnv) Input(n string) (int64, bool)     { v, ok := e.in[n]; return v, ok }
func (e *mergedEnv) PrevInput(n string) (int64, bool) { v, ok := e.prev[n]; return v, ok }
func (e *mergedEnv) SetOutput(n string, v int64)      { e.out[n] = v }
func (e *mergedEnv) State(n string) int64             { return e.state[n] }
func (e *mergedEnv) SetState(n string, v int64)       { e.state[n] = v }
func (e *mergedEnv) Param(n string) (int64, bool)     { return 0, false }
func (e *mergedEnv) Schedule(tag int, d int64)        { e.sched = append(e.sched, tag) }
func (e *mergedEnv) TimerFired(tag int) bool          { return e.fired[tag] }
func (e *mergedEnv) Now() int64                       { return e.now }

// step evaluates the merged program once with given inputs, simulating
// the prev-input bookkeeping the real runtime performs.
func (e *mergedEnv) step(t *testing.T, p *behavior.Program, inputs map[string]int64) {
	t.Helper()
	for k, v := range inputs {
		e.in[k] = v
	}
	if err := behavior.Eval(p, e); err != nil {
		t.Fatal(err)
	}
	for k, v := range e.in {
		e.prev[k] = v
	}
	e.fired = map[int]bool{}
}

func TestMergedProgramComputesAndThenNot(t *testing.T) {
	d, part := twoGateDesign(t)
	m, err := MergePartition(d, part)
	if err != nil {
		t.Fatal(err)
	}
	env := newMergedEnv(m.Program)
	cases := []struct{ a, b, want int64 }{
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 0},
	}
	for _, tc := range cases {
		env.step(t, m.Program, map[string]int64{"in0": tc.a, "in1": tc.b})
		if env.out["out0"] != tc.want {
			t.Errorf("!(%d && %d) = %d, want %d", tc.a, tc.b, env.out["out0"], tc.want)
		}
	}
}

func TestMergePreservesInternalEdgeDetection(t *testing.T) {
	// btn -> not -> toggle -> led, partition {not, toggle}: the
	// toggle's input edge is internal and must still be detected via
	// the wire's previous-value shadow.
	d := netlist.NewDesign("edge", block.Standard())
	d.MustAddBlock("btn", "Button")
	not := d.MustAddBlock("not", "Not")
	tog := d.MustAddBlock("tog", "Toggle")
	d.MustAddBlock("led", "LED")
	d.MustConnect("btn", "y", "not", "a")
	d.MustConnect("not", "y", "tog", "a")
	d.MustConnect("tog", "y", "led", "a")
	m, err := MergePartition(d, graph.NewNodeSet(not, tog))
	if err != nil {
		t.Fatal(err)
	}
	text := behavior.Format(m.Program)
	if !strings.Contains(text, "_prev") {
		t.Fatalf("no previous-value shadow in merged program:\n%s", text)
	}
	env := newMergedEnv(m.Program)
	// Settle: btn=0 => not=1, rising edge suppressed? The merged block
	// initializes wires to 0, so the first evaluation sees the wire go
	// 0->1: the toggle flips once at power-on settle, matching a
	// standalone Not+Toggle pair that settles in topo order? A
	// standalone toggle's settle pass suppresses edges; here we assert
	// merged-block *steady-state* behavior: after the settle step,
	// further steps with unchanged input do not flip the toggle.
	env.step(t, m.Program, map[string]int64{"in0": 0})
	settled := env.out["out0"]
	env.step(t, m.Program, map[string]int64{"in0": 0})
	if env.out["out0"] != settled {
		t.Fatal("toggle flips on re-evaluation without an edge")
	}
	// btn 0->1: not 1->0, falling edge: no flip.
	env.step(t, m.Program, map[string]int64{"in0": 1})
	if env.out["out0"] != settled {
		t.Fatal("toggle flipped on falling internal edge")
	}
	// btn 1->0: not 0->1, rising edge: flip.
	env.step(t, m.Program, map[string]int64{"in0": 0})
	if env.out["out0"] == settled {
		t.Fatal("toggle missed rising internal edge")
	}
}

func TestMergeRenamesConflictingStates(t *testing.T) {
	// Two toggles in one partition both have a state named "v"; the
	// merged program must keep them separate.
	d := netlist.NewDesign("conflict", block.Standard())
	d.MustAddBlock("b0", "Button")
	t0 := d.MustAddBlock("t0", "Toggle")
	t1 := d.MustAddBlock("t1", "Toggle")
	d.MustAddBlock("led", "LED")
	d.MustConnect("b0", "y", "t0", "a")
	d.MustConnect("t0", "y", "t1", "a")
	d.MustConnect("t1", "y", "led", "a")
	m, err := MergePartition(d, graph.NewNodeSet(t0, t1))
	if err != nil {
		t.Fatal(err)
	}
	text := behavior.Format(m.Program)
	if !strings.Contains(text, "b0_v") || !strings.Contains(text, "b1_v") {
		t.Fatalf("state renaming missing:\n%s", text)
	}
}

func TestMergeRetagsTimers(t *testing.T) {
	// Two pulse generators in one partition need distinct timer tags.
	d := netlist.NewDesign("timers", block.Standard())
	d.MustAddBlock("b", "Button")
	p0 := d.MustAddBlockWithParams("p0", "PulseGen", map[string]int64{"WIDTH": 100})
	p1 := d.MustAddBlockWithParams("p1", "PulseGen", map[string]int64{"WIDTH": 300})
	d.MustAddBlock("led", "LED")
	d.MustConnect("b", "y", "p0", "a")
	d.MustConnect("p0", "y", "p1", "a")
	d.MustConnect("p1", "y", "led", "a")
	m, err := MergePartition(d, graph.NewNodeSet(p0, p1))
	if err != nil {
		t.Fatal(err)
	}
	text := behavior.Format(m.Program)
	for _, want := range []string{"scheduletag(0, 100)", "scheduletag(1, 300)", "timertag(0)", "timertag(1)"} {
		if !strings.Contains(text, want) {
			t.Errorf("merged program missing %q:\n%s", want, text)
		}
	}
}

func TestMergeInlinesParams(t *testing.T) {
	d := netlist.NewDesign("params", block.Standard())
	d.MustAddBlock("a", "Button")
	d.MustAddBlock("b", "Button")
	tt := d.MustAddBlockWithParams("tt", "TruthTable2", map[string]int64{"TT": 6}) // XOR
	n := d.MustAddBlock("n", "Not")
	d.MustAddBlock("led", "LED")
	d.MustConnect("a", "y", "tt", "a")
	d.MustConnect("b", "y", "tt", "b")
	d.MustConnect("tt", "y", "n", "a")
	d.MustConnect("n", "y", "led", "a")
	m, err := MergePartition(d, graph.NewNodeSet(tt, n))
	if err != nil {
		t.Fatal(err)
	}
	text := behavior.Format(m.Program)
	if strings.Contains(text, "TT") {
		t.Fatalf("parameter not inlined:\n%s", text)
	}
	if !strings.Contains(text, "6 >>") {
		t.Fatalf("inlined value missing:\n%s", text)
	}
	// XNOR truth check.
	env := newMergedEnv(m.Program)
	for _, tc := range []struct{ a, b, want int64 }{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {1, 1, 1}} {
		env.step(t, m.Program, map[string]int64{"in0": tc.a, "in1": tc.b})
		if env.out["out0"] != tc.want {
			t.Errorf("xnor(%d,%d) = %d, want %d", tc.a, tc.b, env.out["out0"], tc.want)
		}
	}
}

func TestMergeSharedExternalDriverCostsOneInput(t *testing.T) {
	// One sensor feeds both members: merged program has ONE input.
	d := netlist.NewDesign("shared", block.Standard())
	d.MustAddBlock("s", "Button")
	a := d.MustAddBlock("na", "Not")
	b := d.MustAddBlock("nb", "Not")
	d.MustAddBlock("l1", "LED")
	d.MustAddBlock("l2", "LED")
	d.MustConnect("s", "y", "na", "a")
	d.MustConnect("s", "y", "nb", "a")
	d.MustConnect("na", "y", "l1", "a")
	d.MustConnect("nb", "y", "l2", "a")
	m, err := MergePartition(d, graph.NewNodeSet(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumIn() != 1 || m.NumOut() != 2 {
		t.Fatalf("ports = %dx%d, want 1x2", m.NumIn(), m.NumOut())
	}
}

func TestMergeErrors(t *testing.T) {
	d, _ := twoGateDesign(t)
	if _, err := MergePartition(d, graph.NewNodeSet()); err == nil {
		t.Error("empty partition accepted")
	}
	s0 := d.Graph().Lookup("s0")
	if _, err := MergePartition(d, graph.NewNodeSet(s0)); err == nil {
		t.Error("sensor in partition accepted")
	}
}

func TestPadPorts(t *testing.T) {
	d, part := twoGateDesign(t)
	m, err := MergePartition(d, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PadPorts(2, 2); err != nil {
		t.Fatal(err)
	}
	if len(m.Program.Inputs) != 2 || len(m.Program.Outputs) != 2 {
		t.Fatalf("padded ports = %dx%d", len(m.Program.Inputs), len(m.Program.Outputs))
	}
	// Padding below usage fails.
	if err := m.PadPorts(1, 1); err == nil {
		t.Error("under-padding accepted")
	}
}

func TestEmitC(t *testing.T) {
	d, part := twoGateDesign(t)
	m, err := MergePartition(d, part)
	if err != nil {
		t.Fatal(err)
	}
	c := EmitC(m.Program, "p0")
	for _, want := range []string{
		"#include <stdint.h>",
		"void p0_init(void)",
		"void p0_step(const int32_t *inputs, int32_t *outputs",
		"inputs[0]", "outputs[0]",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("C output missing %q:\n%s", want, c)
		}
	}
}

func TestEmitCTimersAndEdges(t *testing.T) {
	prog := behavior.MustParse(`input a; output y; state v = 0; param W = 44;
        run {
            if (rising(a)) { v = 1; schedule(W); }
            if (timer) { v = 0; }
            if (falling(a) || changed(a)) { y = prev(a); }
            y = v && now() >= 0;
        }`)
	c := EmitC(prog, "blk")
	for _, want := range []string{
		"blk_schedule(0, (uint32_t)(blk_W))",
		"(timer_fired_mask >> 0) & 1",
		"blk_a_prev",
		"#define blk_W (44)",
		"now_ms",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("C output missing %q:\n%s", want, c)
		}
	}
}

package netlist

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/graph"
)

// garage builds the Figure 1 garage-open-at-night system: a contact
// switch and an inverted light sensor ANDed into an LED.
func garage(t testing.TB) *Design {
	d := NewDesign("GarageOpenAtNight", block.Standard())
	d.MustAddBlock("door", "ContactSwitch")
	d.MustAddBlock("light", "LightSensor")
	d.MustAddBlock("dark", "Not")
	d.MustAddBlock("both", "And2")
	d.MustAddBlock("led", "LED")
	d.MustConnect("door", "y", "both", "a")
	d.MustConnect("light", "y", "dark", "a")
	d.MustConnect("dark", "y", "both", "b")
	d.MustConnect("both", "y", "led", "a")
	return d
}

func TestBuildAndValidate(t *testing.T) {
	d := garage(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Sensors != 2 || st.Outputs != 1 || st.Inner != 2 || st.Edges != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Depth != 3 {
		t.Fatalf("depth = %d, want 3", st.Depth)
	}
}

func TestBuilderErrors(t *testing.T) {
	d := NewDesign("x", block.Standard())
	if _, err := d.AddBlock("a", "NoSuchType"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := d.AddBlockWithParams("a", "PulseGen", map[string]int64{"NOPE": 1}); err == nil {
		t.Error("unknown param accepted")
	}
	d.MustAddBlock("s", "Button")
	d.MustAddBlock("n", "Not")
	if err := d.Connect("zz", "y", "n", "a"); err == nil {
		t.Error("unknown source block accepted")
	}
	if err := d.Connect("s", "zz", "n", "a"); err == nil {
		t.Error("unknown source port accepted")
	}
	if err := d.Connect("s", "y", "n", "zz"); err == nil {
		t.Error("unknown dest port accepted")
	}
	if err := d.Connect("s", "y", "zz", "a"); err == nil {
		t.Error("unknown dest block accepted")
	}
}

func TestValidateRequirements(t *testing.T) {
	reg := block.Standard()
	d := NewDesign("empty", reg)
	if err := d.Validate(); err == nil {
		t.Error("design without sensors validated")
	}
	d.MustAddBlock("s", "Button")
	if err := d.Validate(); err == nil {
		t.Error("design without outputs validated")
	}
	d.MustAddBlock("led", "LED")
	if err := d.Validate(); err == nil {
		t.Error("design with undriven LED validated")
	}
	d.MustConnect("s", "y", "led", "a")
	if err := d.Validate(); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	// Undriven compute input.
	d.MustAddBlock("and", "And2")
	d.MustConnect("s", "y", "and", "a")
	if err := d.Validate(); err == nil {
		t.Error("undriven And2.b validated")
	}
}

func TestParamEffective(t *testing.T) {
	d := NewDesign("x", block.Standard())
	id := d.MustAddBlockWithParams("pg", "PulseGen", map[string]int64{"WIDTH": 250})
	if v, ok := d.Param(id, "WIDTH"); !ok || v != 250 {
		t.Fatalf("override = %d, %v", v, ok)
	}
	id2 := d.MustAddBlock("pg2", "PulseGen")
	if v, ok := d.Param(id2, "WIDTH"); !ok || v != 1000 {
		t.Fatalf("default = %d, %v", v, ok)
	}
}

func TestSetProgram(t *testing.T) {
	reg := block.Standard()
	reg.MustRegister(block.ProgrammableType(2, 2))
	d := NewDesign("x", reg)
	id := d.MustAddBlock("p", "Prog2x2")
	bad := behavior.MustParse("input a; output y; run { y = a; }")
	if err := d.SetProgram(id, bad); err == nil {
		t.Error("mismatched program accepted")
	}
	good := behavior.MustParse("input in0, in1; output out0, out1; run { out0 = in0; out1 = in1; }")
	if err := d.SetProgram(id, good); err != nil {
		t.Fatal(err)
	}
	if !d.HasProgramOverride(id) {
		t.Error("override not recorded")
	}
	if d.Program(id) != good {
		t.Error("Program does not return override")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	d := garage(t)
	text := Serialize(d)
	d2, err := Parse(text, block.Standard())
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	if Serialize(d2) != text {
		t.Fatalf("round trip not a fixed point:\n%s\nvs\n%s", text, Serialize(d2))
	}
	if d2.Stats() != d.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", d2.Stats(), d.Stats())
	}
}

func TestRoundTripWithParamsAndProgram(t *testing.T) {
	reg := block.Standard()
	reg.MustRegister(block.ProgrammableType(2, 2))
	d := NewDesign("synth", reg)
	d.MustAddBlock("s1", "Button")
	d.MustAddBlock("s2", "Button")
	pid := d.MustAddBlock("p0", "Prog2x2")
	d.MustAddBlockWithParams("pg", "PulseGen", map[string]int64{"WIDTH": 333})
	d.MustAddBlock("led", "LED")
	prog := behavior.MustParse(`input in0, in1; output out0, out1; state w = 0;
        run { w = in0 && in1; out0 = w; out1 = !w; }`)
	if err := d.SetProgram(pid, prog); err != nil {
		t.Fatal(err)
	}
	d.MustConnect("s1", "y", "p0", "in0")
	d.MustConnect("s2", "y", "p0", "in1")
	d.MustConnect("p0", "out0", "pg", "a")
	d.MustConnect("pg", "y", "led", "a")

	text := Serialize(d)
	// Reload against a *fresh* standard catalog: Prog2x2 must be
	// auto-registered by the parser.
	d2, err := Parse(text, block.Standard())
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	if Serialize(d2) != text {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", text, Serialize(d2))
	}
	pid2 := d2.Graph().Lookup("p0")
	if !d2.HasProgramOverride(pid2) {
		t.Fatal("program override lost in round trip")
	}
	if v, _ := d2.Param(d2.Graph().Lookup("pg"), "WIDTH"); v != 333 {
		t.Fatalf("param lost: %d", v)
	}
}

func TestParseErrors(t *testing.T) {
	reg := block.Standard()
	cases := []string{
		"",                                          // no design
		"block a Button",                            // block before design
		"design d\ndesign e",                        // duplicate design
		"design d\nblock a",                         // missing type
		"design d\nblock a NoType",                  // unknown type
		"design d\nblock a Button X",                // malformed param
		"design d\nblock a Button X=zz",             // bad param value
		"design d\nconnect a.y -> b.a",              // unknown blocks
		"design d\nblock a Button\nconnect a.y b.a", // missing arrow
		"design d\nblock a Button\nconnect ay -> b", // malformed ports
		"design d\nfrobnicate",                      // unknown directive
		"design d\nblock p Prog2x2 {\ninput in0;\n", // unterminated program
		"design d\nblock p Prog65x1",                // past the port cap
	}
	for _, src := range cases {
		if _, err := Parse(src, reg); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `# a comment
design d

# another
block s Button
block led LED
connect s.y -> led.a
`
	d, err := Parse(src, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := garage(t)
	c := Clone(d)
	c.MustAddBlock("extra", "Button")
	if d.Graph().Lookup("extra") != graph.InvalidNode {
		t.Fatal("clone shares graph")
	}
	if c.Stats().Sensors != d.Stats().Sensors+1 {
		t.Fatal("clone stats wrong")
	}
}

func TestMarshalJSON(t *testing.T) {
	d := garage(t)
	raw, err := MarshalJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["name"] != "GarageOpenAtNight" {
		t.Fatalf("name = %v", decoded["name"])
	}
	blocks := decoded["blocks"].([]interface{})
	wires := decoded["wires"].([]interface{})
	if len(blocks) != 5 || len(wires) != 4 {
		t.Fatalf("blocks=%d wires=%d", len(blocks), len(wires))
	}
	if !strings.Contains(string(raw), "\"kind\": \"sensor\"") {
		t.Fatal("kind annotation missing")
	}
}

func TestDOTExport(t *testing.T) {
	d := garage(t)
	dot := DOT(d, nil)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "door") {
		t.Fatalf("dot output:\n%s", dot)
	}
}

// TestDeriveCopyOnWrite checks that a derived design shares its base's
// graph only until either side adds a block or a wire, and that
// parameter and program patches stay on the side that made them.
func TestDeriveCopyOnWrite(t *testing.T) {
	base := garage(t)
	baseFP := Fingerprint(base)
	d := base.Derive()
	if d.Graph() != base.Graph() || Fingerprint(d) != baseFP {
		t.Fatal("derived design differs from its base")
	}
	both := d.Graph().Lookup("both")
	if err := d.SetParams(both, map[string]int64{"NOPE": 1}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	dark := d.Graph().Lookup("dark")
	if err := d.SetProgram(dark, d.Program(dark).Clone()); err != nil {
		t.Fatal(err)
	}
	if base.HasProgramOverride(dark) || !d.HasProgramOverride(dark) {
		t.Fatal("program override leaked across Derive")
	}

	d.MustAddBlock("extra", "Button")
	d.MustAddBlock("lamp", "LED")
	d.MustConnect("extra", "y", "lamp", "a")
	if base.Graph().Lookup("extra") != graph.InvalidNode || Fingerprint(base) != baseFP {
		t.Fatal("adding to a derived design changed its base")
	}

	d2 := base.Derive()
	base.MustAddBlock("late", "Button")
	if d2.Graph().Lookup("late") != graph.InvalidNode || d2.Graph().NumNodes() != 5 {
		t.Fatal("adding to a base changed a design derived from it")
	}
}

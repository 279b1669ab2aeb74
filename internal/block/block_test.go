package block

import (
	"testing"

	"repro/internal/behavior"
)

func TestStandardCatalog(t *testing.T) {
	r := Standard()
	// Spot-check the catalog contents and kinds.
	wantKinds := map[string]Kind{
		"Button":        Sensor,
		"ContactSwitch": Sensor,
		"LightSensor":   Sensor,
		"LED":           Output,
		"Buzzer":        Output,
		"And2":          Combinational,
		"Or2":           Combinational,
		"Not":           Combinational,
		"TruthTable2":   Combinational,
		"TruthTable3":   Combinational,
		"Splitter":      Combinational,
		"Toggle":        Sequential,
		"Trip":          Sequential,
		"PulseGen":      Sequential,
		"Delay":         Sequential,
		"RFLink":        Communication,
	}
	for name, kind := range wantKinds {
		tp := r.Lookup(name)
		if tp == nil {
			t.Errorf("catalog missing %q", name)
			continue
		}
		if tp.Kind != kind {
			t.Errorf("%s kind = %v, want %v", name, tp.Kind, kind)
		}
	}
	if r.Lookup("NoSuchBlock") != nil {
		t.Error("lookup of unknown type succeeded")
	}
	if r.Len() < 20 {
		t.Errorf("catalog unexpectedly small: %d types", r.Len())
	}
	// Names is sorted and complete.
	names := r.Names()
	if len(names) != r.Len() {
		t.Fatal("Names length mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestCatalogPortShapes(t *testing.T) {
	r := Standard()
	for _, name := range r.Names() {
		tp := r.Lookup(name)
		switch tp.Kind {
		case Sensor:
			if tp.NumIn() != 0 || tp.NumOut() != 1 {
				t.Errorf("%s: sensor shape %dx%d", name, tp.NumIn(), tp.NumOut())
			}
		case Output:
			if tp.NumIn() != 1 || tp.NumOut() != 0 {
				t.Errorf("%s: output shape %dx%d", name, tp.NumIn(), tp.NumOut())
			}
		default:
			if tp.Program == nil {
				t.Errorf("%s: compute block without program", name)
			}
			if tp.NumOut() == 0 {
				t.Errorf("%s: compute block without outputs", name)
			}
		}
	}
}

func TestPinLookups(t *testing.T) {
	r := Standard()
	and := r.Lookup("And2")
	if and.InputPin("a") != 0 || and.InputPin("b") != 1 || and.InputPin("zz") != -1 {
		t.Error("And2 input pins wrong")
	}
	if and.OutputPin("y") != 0 || and.OutputPin("q") != -1 {
		t.Error("And2 output pins wrong")
	}
	sp := r.Lookup("Splitter")
	if sp.OutputPin("y0") != 0 || sp.OutputPin("y1") != 1 {
		t.Error("Splitter output pins wrong")
	}
	trip := r.Lookup("Trip")
	if trip.InputPin("trigger") != 0 || trip.InputPin("reset") != 1 {
		t.Error("Trip input pins wrong")
	}
}

func TestParamDefaults(t *testing.T) {
	r := Standard()
	pg := r.Lookup("PulseGen")
	if v, ok := pg.ParamDefault("WIDTH"); !ok || v != 1000 {
		t.Errorf("PulseGen WIDTH default = %d, %v", v, ok)
	}
	if _, ok := pg.ParamDefault("NOPE"); ok {
		t.Error("unknown param reported present")
	}
	if _, ok := r.Lookup("Button").ParamDefault("X"); ok {
		t.Error("sensor param reported present")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Type{Name: "", Kind: Sensor, Outputs: []string{"y"}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(&Type{Name: "S", Kind: Sensor, Inputs: []string{"a"}, Outputs: []string{"y"}}); err == nil {
		t.Error("sensor with inputs accepted")
	}
	if err := r.Register(&Type{Name: "O", Kind: Output, Inputs: []string{"a"}, Outputs: []string{"y"}}); err == nil {
		t.Error("output with outputs accepted")
	}
	if err := r.Register(&Type{Name: "C", Kind: Combinational, Inputs: []string{"a"}, Outputs: []string{"y"}}); err == nil {
		t.Error("compute block without program accepted")
	}
	mismatched := &Type{
		Name: "M", Kind: Combinational,
		Inputs:  []string{"a"},
		Outputs: []string{"y"},
		Program: behavior.MustParse("input x; output y; run { y = x; }"),
	}
	if err := r.Register(mismatched); err == nil {
		t.Error("program/port mismatch accepted")
	}
	good := &Type{
		Name: "G", Kind: Combinational,
		Inputs:  []string{"a"},
		Outputs: []string{"y"},
		Program: behavior.MustParse("input a; output y; run { y = a; }"),
	}
	if err := r.Register(good); err != nil {
		t.Errorf("valid type rejected: %v", err)
	}
	if err := r.Register(good); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestProgrammableType(t *testing.T) {
	p := ProgrammableType(2, 2)
	if p.Name != "Prog2x2" || p.Kind != Programmable {
		t.Fatalf("type = %s %v", p.Name, p.Kind)
	}
	if p.NumIn() != 2 || p.NumOut() != 2 {
		t.Fatalf("shape = %dx%d", p.NumIn(), p.NumOut())
	}
	if p.Program == nil {
		t.Fatal("no default program")
	}
	p43 := ProgrammableType(4, 3)
	if p43.Name != "Prog4x3" || p43.NumIn() != 4 || p43.NumOut() != 3 {
		t.Fatal("4x3 programmable block wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("0x0 programmable type accepted")
		}
	}()
	ProgrammableType(0, 0)
}

func TestKindPredicates(t *testing.T) {
	if Sensor.String() != "sensor" || Programmable.String() != "programmable" {
		t.Error("kind strings wrong")
	}
}

// TestStandardSharesOneCatalog pins the catalog contract: every
// Standard() registry holds the same types and programs, built once
// per process, yet each registry is its own — registering into one
// leaves the others unchanged — and a fresh registry costs a handful
// of allocations, not a re-parse of the catalog's programs.
func TestStandardSharesOneCatalog(t *testing.T) {
	a, b := Standard(), Standard()
	for _, name := range a.Names() {
		ta, tb := a.Lookup(name), b.Lookup(name)
		if ta != tb || ta.Program != tb.Program {
			t.Errorf("%s: two Standard() registries hold different types or programs", name)
		}
	}
	n := b.Len()
	a.MustRegister(&Type{Name: "Extra", Kind: Sensor, Outputs: []string{"y"}})
	if err := a.Ensure(ProgrammableType(3, 2)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != n || b.Lookup("Extra") != nil || b.Lookup("Prog3x2") != nil {
		t.Error("registering into one Standard() registry changed another")
	}
	if c := Standard(); c.Len() != n {
		t.Errorf("a later Standard() has %d types, want %d", c.Len(), n)
	}
	if allocs := testing.AllocsPerRun(100, func() { Standard() }); allocs >= 20 {
		t.Errorf("Standard() makes %.0f allocations, want fewer than 20", allocs)
	}
}

package block

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"

	"repro/internal/behavior"
	"repro/internal/memo"
)

// Standard returns a registry populated with the full eBlock catalog
// described in Section 2 of the paper. Each call returns a fresh
// registry, so callers may extend it without affecting others. The
// catalog's types and their behavior programs are built once per
// process and shared by every registry: types are immutable after
// registration.
func Standard() *Registry {
	return &Registry{types: maps.Clone(standardTypes())}
}

var standardTypes = sync.OnceValue(func() map[string]*Type {
	r := NewRegistry()

	// --- Sensor blocks (primary inputs) -------------------------------
	for _, s := range []struct{ name, doc string }{
		{"Button", "momentary push button; high while pressed"},
		{"ContactSwitch", "magnetic contact switch; high while the contact is closed (e.g. door open sensor)"},
		{"MotionSensor", "PIR motion detector; high while motion is sensed"},
		{"LightSensor", "photocell; high while ambient light exceeds its threshold"},
		{"SoundSensor", "microphone with threshold; high while sound is detected"},
		{"TiltSensor", "tilt/vibration switch; high while tilted"},
	} {
		r.MustRegister(&Type{
			Name: s.name, Kind: Sensor,
			Outputs: []string{"y"},
			Doc:     s.doc,
		})
	}

	// --- Output blocks (primary outputs) -------------------------------
	for _, s := range []struct{ name, doc string }{
		{"LED", "light-emitting diode; lit while its input is high"},
		{"Buzzer", "beeper; sounds while its input is high"},
		{"Relay", "electric relay driving an appliance; closed while input is high"},
		{"Display", "single-character status display of its input"},
	} {
		r.MustRegister(&Type{
			Name: s.name, Kind: Output,
			Inputs: []string{"a"},
			Doc:    s.doc,
		})
	}

	// --- Combinational compute blocks ----------------------------------
	comb := func(name, doc string, inputs []string, src string) {
		r.MustRegister(&Type{
			Name: name, Kind: Combinational,
			Inputs:  inputs,
			Outputs: []string{"y"},
			Program: behavior.MustParse(src),
			Doc:     doc,
		})
	}
	comb("Not", "logical inverter (the paper's yes/no inverter)", []string{"a"},
		"input a; output y; run { y = !a; }")
	comb("And2", "2-input AND", []string{"a", "b"},
		"input a, b; output y; run { y = a && b; }")
	comb("Or2", "2-input OR", []string{"a", "b"},
		"input a, b; output y; run { y = a || b; }")
	comb("Xor2", "2-input XOR", []string{"a", "b"},
		"input a, b; output y; run { y = (a != 0) != (b != 0); }")
	comb("Nand2", "2-input NAND", []string{"a", "b"},
		"input a, b; output y; run { y = !(a && b); }")
	comb("Nor2", "2-input NOR", []string{"a", "b"},
		"input a, b; output y; run { y = !(a || b); }")
	comb("And3", "3-input AND", []string{"a", "b", "c"},
		"input a, b, c; output y; run { y = a && b && c; }")
	comb("Or3", "3-input OR", []string{"a", "b", "c"},
		"input a, b, c; output y; run { y = a || b || c; }")

	// The paper's configurable "two or three input truth table" blocks:
	// parameter TT holds the output column, LSB = all-inputs-low row.
	comb("TruthTable2", "2-input truth table; param TT bits index rows a*2+b", []string{"a", "b"},
		`input a, b; output y; param TT = 0;
         run { y = (TT >> ((a != 0) * 2 + (b != 0))) & 1; }`)
	r.MustRegister(&Type{
		Name: "TruthTable3", Kind: Combinational,
		Inputs:  []string{"a", "b", "c"},
		Outputs: []string{"y"},
		Program: behavior.MustParse(
			`input a, b, c; output y; param TT = 0;
             run { y = (TT >> ((a != 0) * 4 + (b != 0) * 2 + (c != 0))) & 1; }`),
		Doc: "3-input truth table; param TT bits index rows a*4+b*2+c",
	})

	// Splitter: one input fanned to two outputs. Physical eBlocks need
	// it because a block output drives one wire; in the DAG model it is
	// an identity with two output ports.
	r.MustRegister(&Type{
		Name: "Splitter", Kind: Combinational,
		Inputs:  []string{"a"},
		Outputs: []string{"y0", "y1"},
		Program: behavior.MustParse("input a; output y0, y1; run { y0 = a; y1 = a; }"),
		Doc:     "fans one signal out to two wires",
	})

	// --- Sequential compute blocks --------------------------------------
	seq := func(name, doc string, inputs []string, src string) {
		r.MustRegister(&Type{
			Name: name, Kind: Sequential,
			Inputs:  inputs,
			Outputs: []string{"y"},
			Program: behavior.MustParse(src),
			Doc:     doc,
		})
	}
	seq("Toggle", "toggles its output on each rising edge of the input", []string{"a"},
		`input a; output y; state v = 0;
         run { if (rising(a)) { v = !v; } y = v; }`)
	seq("Trip", "latches high on a rising trigger edge; reset input clears it", []string{"trigger", "reset"},
		`input trigger, reset; output y; state v = 0;
         run {
             if (reset) { v = 0; } else if (rising(trigger)) { v = 1; }
             y = v;
         }`)
	seq("PulseGen", "emits a WIDTH-ms pulse on each rising edge of the input", []string{"a"},
		`input a; output y; state active = 0;
         param WIDTH = 1000;
         run {
             if (rising(a)) { active = 1; schedule(WIDTH); }
             if (timer) { active = 0; }
             y = active;
         }`)
	seq("Delay", "reproduces its input DELAY ms later", []string{"a"},
		`input a; output y; state pending = 0;
         param DELAY = 1000;
         run {
             if (changed(a)) { pending = a; schedule(DELAY); }
             if (timer) { y = pending; }
         }`)
	seq("Prolong", "stretches a pulse: output stays high HOLD ms past the last rising edge", []string{"a"},
		`input a; output y; state deadline = 0;
         param HOLD = 1000;
         run {
             if (rising(a)) { y = 1; deadline = now() + HOLD; schedule(HOLD); }
             if (timer && now() >= deadline) { y = 0; }
         }`)
	seq("OnceEvery", "forwards at most one rising edge per PERIOD ms (rate limiter)", []string{"a"},
		`input a; output y; state armed = 1;
         param PERIOD = 1000;
         run {
             if (rising(a) && armed) { y = 1; armed = 0; schedule(PERIOD); }
             if (timer) { armed = 1; y = 0; }
         }`)

	// --- Communication blocks -------------------------------------------
	commDoc := map[string]string{
		"WireExtender": "long-haul wired repeater",
		"RFLink":       "wireless point-to-point link (modeled as identity with latency in the simulator)",
		"X10Bridge":    "power-line X10 bridge (modeled as identity)",
	}
	for name, doc := range commDoc {
		r.MustRegister(&Type{
			Name: name, Kind: Communication,
			Inputs:  []string{"a"},
			Outputs: []string{"y"},
			Program: behavior.MustParse("input a; output y; run { y = a; }"),
			Doc:     doc,
		})
	}

	return r.types
})

// MaxProgPorts caps each side of a programmable block's port budget,
// 9x the largest the repo uses (7), so a client-chosen budget stays
// cheap: a ProgNxM name past it is no type, and constraints past it
// are rejected.
const MaxProgPorts = 64

// progTypeMemo caches ProgrammableType results by port budget. Types
// are immutable and registries share them by pointer, so every caller
// asking for the same budget can receive the same *Type; building one
// parses a behavior program, which showed up on the cached-synthesis
// hot path (one call per merge).
var progTypeMemo = memo.New[[2]int, *Type](progTypeMemoEntries, nil)

const progTypeMemoEntries = 256

// ProgrammableType returns the programmable compute block type with
// the given port budget. The default behavior forwards nothing;
// synthesis replaces it per instance with a merged program. Name
// encodes the budget, e.g. "Prog2x2". The returned type is shared
// across calls and must not be mutated.
func ProgrammableType(nin, nout int) *Type {
	if t, ok := progTypeMemo.Get([2]int{nin, nout}); ok {
		return t
	}
	if nin < 1 || nout < 1 {
		panic(fmt.Sprintf("block: programmable type needs at least 1x1 ports, got %dx%d", nin, nout))
	}
	inputs := make([]string, nin)
	for i := range inputs {
		inputs[i] = "in" + strconv.Itoa(i)
	}
	outputs := make([]string, nout)
	var run strings.Builder
	for i := range outputs {
		outputs[i] = "out" + strconv.Itoa(i)
		run.WriteString(" " + outputs[i] + " = 0;")
	}
	src := "input " + strings.Join(inputs, ", ") + ";\noutput " + strings.Join(outputs, ", ") +
		";\nrun {" + run.String() + " }\n"
	t := &Type{
		Name:    fmt.Sprintf("Prog%dx%d", nin, nout),
		Kind:    Programmable,
		Inputs:  inputs,
		Outputs: outputs,
		Program: behavior.MustParse(src),
		Doc:     fmt.Sprintf("programmable block with %d inputs and %d outputs (PIC16F628-class)", nin, nout),
	}
	progTypeMemo.Put([2]int{nin, nout}, t)
	return t
}

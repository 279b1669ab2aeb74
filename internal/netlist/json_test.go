package netlist_test

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestJSONRoundTripLibrary checks Marshal → Unmarshal → Marshal is
// byte-identical on every library design.
func TestJSONRoundTripLibrary(t *testing.T) {
	for _, e := range designs.Library() {
		d := e.Build()
		first, err := netlist.MarshalJSON(d)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e.Name, err)
		}
		d2, err := netlist.UnmarshalJSON(first, block.Standard())
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", e.Name, err)
		}
		second, err := netlist.MarshalJSON(d2)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", e.Name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: JSON round trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", e.Name, first, second)
		}
		if err := d2.Validate(); err != nil {
			t.Errorf("%s: reloaded design invalid: %v", e.Name, err)
		}
	}
}

// TestJSONRoundTripSynthesized covers program overrides: a synthesized
// design carries merged programs on its programmable blocks, which must
// survive the JSON round trip.
func TestJSONRoundTripSynthesized(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	out, err := synth.Synthesize(d, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := netlist.MarshalJSON(out.Synthesized)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := netlist.UnmarshalJSON(first, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	second, err := netlist.MarshalJSON(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("synthesized JSON round trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", first, second)
	}

	// The reloaded design must still be behaviorally equivalent to the
	// original (the programs round-tripped, not just the structure).
	mm, err := synth.Verify(d, d2, synth.VerifyOptions{Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(mm) > 0 {
		t.Errorf("reloaded synthesized design diverges: %v", mm)
	}
}

func TestUnmarshalJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"malformed", `{"name": "x", "blocks": [`},
		{"no name", `{"blocks": []}`},
		{"unknown type", `{"name": "x", "blocks": [{"name": "a", "type": "NoSuchBlock"}]}`},
		{"kind mismatch", `{"name": "x", "blocks": [{"name": "a", "type": "And2", "kind": "sensor"}]}`},
		{"bad wire", `{"name": "x", "blocks": [{"name": "a", "type": "And2"}], "wires": [{"from": "a", "fromPort": "nope", "to": "a", "toPort": "a"}]}`},
		{"bad program", `{"name": "x", "blocks": [{"name": "a", "type": "And2", "program": "not a program"}]}`},
		// Names with whitespace/control characters would corrupt the
		// .ebk serialization and the fingerprint's canonical form.
		{"space in block name", `{"name": "x", "blocks": [{"name": "a Button\nblock b", "type": "And2"}]}`},
		{"space in design name", `{"name": "x y", "blocks": []}`},
		{"empty block name", `{"name": "x", "blocks": [{"name": "", "type": "And2"}]}`},
		// A programmable budget past block.MaxProgPorts is no type.
		{"inputs past the port cap", `{"name": "x", "blocks": [{"name": "p", "type": "Prog65x1"}]}`},
		{"outputs past the port cap", `{"name": "x", "blocks": [{"name": "p", "type": "Prog1x65"}]}`},
	}
	for _, tc := range cases {
		if _, err := netlist.UnmarshalJSON([]byte(tc.src), block.Standard()); err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
		}
	}
}

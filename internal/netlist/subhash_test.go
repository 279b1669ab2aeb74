package netlist_test

import (
	"testing"

	"repro/internal/block"
	"repro/internal/designs"
	"repro/internal/graph"
	"repro/internal/netlist"
)

// pulsePair builds sensor -> pg -> led with a configurable pulse width
// and block-name prefix; the shape every test here mutates.
func pulsePair(prefix string, width int64) *netlist.Design {
	d := netlist.NewDesign("sub", block.Standard())
	d.MustAddBlock(prefix+"s", "Button")
	d.MustAddBlockWithParams(prefix+"pg", "PulseGen", map[string]int64{"WIDTH": width})
	d.MustAddBlock(prefix+"led", "LED")
	d.MustConnect(prefix+"s", "y", prefix+"pg", "a")
	d.MustConnect(prefix+"pg", "y", prefix+"led", "a")
	return d
}

func innerSet(d *netlist.Design) graph.NodeSet {
	ns := graph.NewNodeSet()
	for _, id := range d.InnerBlocks() {
		ns.Add(id)
	}
	return ns
}

func TestStructuralFingerprintIgnoresParamsAndPrograms(t *testing.T) {
	a := pulsePair("", 1000)
	b := pulsePair("", 2000)
	if netlist.StructuralFingerprint(a) != netlist.StructuralFingerprint(b) {
		t.Error("parameter change altered the structural fingerprint")
	}
	if netlist.Fingerprint(a) == netlist.Fingerprint(b) {
		t.Error("parameter change did not alter the full fingerprint")
	}

	// A program override is invisible too.
	c := pulsePair("", 1000)
	id := c.Graph().Lookup("pg")
	prog := c.Program(id).Clone()
	if err := c.SetProgram(id, prog); err != nil {
		t.Fatal(err)
	}
	if netlist.StructuralFingerprint(a) != netlist.StructuralFingerprint(c) {
		t.Error("program override altered the structural fingerprint")
	}

	// The design name is invisible (structure is about the graph).
	d := pulsePair("", 1000)
	d.Name = "renamed"
	if netlist.StructuralFingerprint(a) != netlist.StructuralFingerprint(d) {
		t.Error("design rename altered the structural fingerprint")
	}
}

func TestStructuralFingerprintSeesStructure(t *testing.T) {
	base := pulsePair("", 1000)
	fp := netlist.StructuralFingerprint(base)

	// A block rename is structural (partitioning results name blocks).
	if netlist.StructuralFingerprint(pulsePair("x", 1000)) == fp {
		t.Error("block rename did not alter the structural fingerprint")
	}

	// An extra wire is structural.
	d := netlist.NewDesign("sub", block.Standard())
	d.MustAddBlock("s", "Button")
	d.MustAddBlockWithParams("pg", "PulseGen", map[string]int64{"WIDTH": 1000})
	d.MustAddBlock("n", "Not")
	d.MustAddBlock("led", "LED")
	d.MustConnect("s", "y", "pg", "a")
	d.MustConnect("pg", "y", "n", "a")
	d.MustConnect("n", "y", "led", "a")
	if netlist.StructuralFingerprint(d) == fp {
		t.Error("different topology did not alter the structural fingerprint")
	}
}

func TestStructuralFingerprintOrderIndependent(t *testing.T) {
	build := func(reversed bool) *netlist.Design {
		d := netlist.NewDesign("order", block.Standard())
		names := [][2]string{{"s", "Button"}, {"n", "Not"}, {"led", "LED"}}
		if reversed {
			for i := len(names) - 1; i >= 0; i-- {
				d.MustAddBlock(names[i][0], names[i][1])
			}
		} else {
			for _, n := range names {
				d.MustAddBlock(n[0], n[1])
			}
		}
		d.MustConnect("s", "y", "n", "a")
		d.MustConnect("n", "y", "led", "a")
		return d
	}
	if a, b := netlist.StructuralFingerprint(build(false)), netlist.StructuralFingerprint(build(true)); a != b {
		t.Errorf("structural fingerprint depends on insertion order: %s vs %s", a, b)
	}
}

func TestSubFingerprintSeesParamsAndBoundary(t *testing.T) {
	a := pulsePair("", 1000)
	b := pulsePair("", 2000)
	hA, err := netlist.NewSubHasher(a)
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := hA.Fingerprint(innerSet(a))
	if err != nil {
		t.Fatal(err)
	}
	hB, err := netlist.NewSubHasher(b)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := hB.Fingerprint(innerSet(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(fpA) != 64 {
		t.Fatalf("subgraph fingerprint %q is not a sha256 hex digest", fpA)
	}
	// The merged program inlines parameters, so the artifact key must
	// distinguish parameter values.
	if fpA == fpB {
		t.Error("parameter change did not alter the subgraph fingerprint")
	}

	// Moving the boundary (different consumers of the subgraph's
	// outputs) changes the exported-output cut.
	c := netlist.NewDesign("sub", block.Standard())
	c.MustAddBlock("s", "Button")
	c.MustAddBlockWithParams("pg", "PulseGen", map[string]int64{"WIDTH": 1000})
	c.MustAddBlock("led", "LED")
	c.MustAddBlock("led2", "LED")
	c.MustConnect("s", "y", "pg", "a")
	c.MustConnect("pg", "y", "led", "a")
	c.MustConnect("pg", "y", "led2", "a")
	hC, err := netlist.NewSubHasher(c)
	if err != nil {
		t.Fatal(err)
	}
	fpC, err := hC.Fingerprint(innerSet(c))
	if err != nil {
		t.Fatal(err)
	}
	if fpC != fpA {
		// Same members, same internal wiring, same cut (one exported
		// output port): fan-out count beyond the cut is not part of the
		// artifact's meaning.
		t.Error("external fan-out changed the subgraph fingerprint")
	}
}

// TestSubFingerprintRenameInvariant: the preimage is index-based, so
// renaming every block leaves each subgraph's fingerprint unchanged as
// long as the renaming preserves the canonical (level, name) member
// order — isomorphic partitions of different designs share artifacts.
func TestSubFingerprintRenameInvariant(t *testing.T) {
	// Same-order renaming: "pg" -> "xpg" keeps single-member order.
	a := pulsePair("", 1000)
	b := pulsePair("x", 1000)
	hA, err := netlist.NewSubHasher(a)
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := hA.Fingerprint(innerSet(a))
	if err != nil {
		t.Fatal(err)
	}
	hB, err := netlist.NewSubHasher(b)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := hB.Fingerprint(innerSet(b))
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Error("order-preserving rename altered the subgraph fingerprint")
	}
}

func TestSubFingerprintRejectsBadMembers(t *testing.T) {
	d := pulsePair("", 1000)
	ns := graph.NewNodeSet()
	ns.Add(d.Sensors()[0]) // sensors have no programs and cannot merge
	h, err := netlist.NewSubHasher(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fingerprint(ns); err == nil {
		t.Error("sensor member accepted by Fingerprint")
	}
}

// TestSubHasherCanonicalOrderLibrary pins the canonical-order
// invariants MergeCached relies on, across every library design: merge
// order is total and level-respecting, external inputs and exported
// outputs are deduplicated, and fingerprints are stable across
// rebuilds of the design.
func TestSubHasherCanonicalOrderLibrary(t *testing.T) {
	for _, e := range designs.Library() {
		d := e.Build()
		h, err := netlist.NewSubHasher(d)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		h2, err := netlist.NewSubHasher(e.Build())
		if err != nil {
			t.Fatal(err)
		}
		ns := graph.NewNodeSet()
		for _, id := range d.InnerBlocks() {
			ns.Add(id)
		}
		if ns.Len() == 0 {
			continue
		}
		fp, err := h.Fingerprint(ns)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		ns2 := graph.NewNodeSet()
		for _, id := range e.Build().InnerBlocks() {
			ns2.Add(id)
		}
		fp2, err := h2.Fingerprint(ns2)
		if err != nil {
			t.Fatal(err)
		}
		if fp != fp2 {
			t.Errorf("%s: rebuild changed the subgraph fingerprint", e.Name)
		}

		members := h.MergeOrder(ns)
		if len(members) != ns.Len() {
			t.Fatalf("%s: merge order has %d members, set has %d", e.Name, len(members), ns.Len())
		}
		seenIn := map[graph.Port]bool{}
		for _, p := range h.ExternalInputs(ns) {
			if seenIn[p] {
				t.Errorf("%s: duplicate external input %v", e.Name, p)
			}
			seenIn[p] = true
			if ns.Has(p.Node) {
				t.Errorf("%s: external input %v is inside the subgraph", e.Name, p)
			}
		}
		seenOut := map[graph.Port]bool{}
		for _, p := range h.ExportedOutputs(ns) {
			if seenOut[p] {
				t.Errorf("%s: duplicate exported output %v", e.Name, p)
			}
			seenOut[p] = true
			if !ns.Has(p.Node) {
				t.Errorf("%s: exported output %v is outside the subgraph", e.Name, p)
			}
		}
	}
}

package netlist_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/randgen"
	"repro/internal/synth"
)

// fingerprintGoldenDigest pins netlist.Fingerprint, StructuralFingerprint
// and the subgraph fingerprint of every PareDown partition over the
// population of TestFingerprintGolden. These hashes are the content
// addresses of stored artifacts, so a change here would orphan every
// store entry.
const fingerprintGoldenDigest = "86db7de738084d0c532244dfc24e2d57a4b87d9675a4c50ddfba318b3dfcb2c3"

// oddNames builds a small design whose block names sort differently as
// names and as rendered lines (a control byte below the separator
// space), with a parameter override and a program override.
func oddNames(t *testing.T) *netlist.Design {
	d := netlist.NewDesign("odd\tnames", block.Standard())
	d.MustAddBlock("s", "Button")
	d.MustAddBlockWithParams("a", "Delay", map[string]int64{"DELAY": 7})
	d.MustAddBlock("a\x01", "Not")
	d.MustAddBlock("led", "LED")
	d.MustAddBlock("led2", "LED")
	d.MustConnect("s", "y", "a", "a")
	d.MustConnect("a", "y", "a\x01", "a")
	d.MustConnect("a\x01", "y", "led", "a")
	d.MustConnect("a", "y", "led2", "a")
	if err := d.SetProgram(d.Graph().Lookup("a\x01"), d.Program(d.Graph().Lookup("a\x01")).Clone()); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFingerprintGolden hashes the Table 1 designs, their synthesized
// networks (programmable blocks carry program overrides), a randgen
// population and oddNames.
func TestFingerprintGolden(t *testing.T) {
	var ds []*netlist.Design
	for _, e := range designs.Library() {
		d := e.Build()
		em, err := synth.Run(context.Background(), d, synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d, em.Synthesized)
	}
	for i := 0; i < 40; i++ {
		ds = append(ds, randgen.MustGenerate(randgen.Params{InnerBlocks: 3 + i, Seed: int64(4000 + i)}))
	}
	ds = append(ds, oddNames(t))

	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, netlist.Fingerprint(d), netlist.StructuralFingerprint(d))
		res, err := core.PareDown(d.Graph(), core.Constraints{MaxInputs: 3, MaxOutputs: 3}, core.PareDownOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := netlist.NewSubHasher(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Partitions {
			fp, err := sh.Fingerprint(p)
			fmt.Fprintln(h, fp, err, sh.MergeOrder(p), sh.ExternalInputs(p), sh.ExportedOutputs(p))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fingerprintGoldenDigest {
		t.Fatalf("fingerprint digest %s, want %s", got, fingerprintGoldenDigest)
	}
}

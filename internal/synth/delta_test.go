package synth

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
)

// editScenarios builds one edit list per supported mutation kind
// against d: a parameter tweak, a program override, an added block, a
// wire rewire, and a block swap (remove + re-add with reconstructed
// wiring). Scenarios a design cannot express (no parameters, no
// spare source) are skipped.
func editScenarios(d *netlist.Design) map[string][]Edit {
	g := d.Graph()
	scns := map[string][]Edit{}

	sensors := d.Sensors()
	if len(sensors) == 0 {
		return scns
	}
	srcBlock := g.Name(sensors[0])
	srcPort := d.Type(sensors[0]).Outputs[0]

	for _, id := range d.InnerBlocks() {
		p := d.Program(id)
		if p == nil || len(p.Params) == 0 {
			continue
		}
		v := p.Params[0].Init
		if cur, ok := d.Param(id, p.Params[0].Name); ok {
			v = cur
		}
		scns["param-tweak"] = []Edit{{Op: "set-param", Block: g.Name(id), Param: p.Params[0].Name, Value: v + 1}}
		break
	}

	for _, id := range d.InnerBlocks() {
		if p := d.Program(id); p != nil {
			scns["program-override"] = []Edit{{Op: "set-program", Block: g.Name(id), Program: behavior.Format(p)}}
			break
		}
	}

	for _, id := range d.InnerBlocks() {
		t := d.Type(id)
		edits := []Edit{{Op: "add-block", Block: "delta_added", Type: t.Name}}
		for _, in := range t.Inputs {
			edits = append(edits, Edit{Op: "add-wire", From: srcBlock, FromPort: srcPort, To: "delta_added", ToPort: in})
		}
		scns["add-block"] = edits
		break
	}

	for _, id := range d.InnerBlocks() {
		found := false
		for pin := 0; pin < g.NumIn(id); pin++ {
			e := g.Driver(id, pin)
			if e == nil || e.From.Node == sensors[0] {
				continue
			}
			toPort := d.Type(id).Inputs[pin]
			scns["wire-rewire"] = []Edit{
				{Op: "remove-wire", To: g.Name(id), ToPort: toPort},
				{Op: "add-wire", From: srcBlock, FromPort: srcPort, To: g.Name(id), ToPort: toPort},
			}
			found = true
			break
		}
		if found {
			break
		}
	}

	for _, id := range d.InnerBlocks() {
		name, t := g.Name(id), d.Type(id)
		edits := []Edit{
			{Op: "remove-block", Block: name},
			{Op: "add-block", Block: name, Type: t.Name, Params: d.Params(id)},
		}
		for pin := 0; pin < g.NumIn(id); pin++ {
			if e := g.Driver(id, pin); e != nil {
				edits = append(edits, Edit{
					Op: "add-wire", From: g.Name(e.From.Node), FromPort: d.Type(e.From.Node).Outputs[e.From.Pin],
					To: name, ToPort: t.Inputs[pin],
				})
			}
		}
		for _, e := range g.AllOutEdges(id) {
			edits = append(edits, Edit{
				Op: "add-wire", From: name, FromPort: t.Outputs[e.From.Pin],
				To: g.Name(e.To.Node), ToPort: d.Type(e.To.Node).Inputs[e.To.Pin],
			})
		}
		scns["block-swap"] = edits
		break
	}

	return scns
}

// emittedBytes renders everything a client can observe from an emit
// artifact in canonical bytes: the synthesized design (JSON and .ebk),
// the generated firmware, and the realized partitioning.
func emittedBytes(t *testing.T, em *Emitted) []byte {
	t.Helper()
	var b bytes.Buffer
	js, err := netlist.MarshalJSON(em.Synthesized)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(js)
	b.WriteString(netlist.Serialize(em.Synthesized))
	for pi, mg := range em.Merges {
		fmt.Fprintf(&b, "p%d %s\n", pi, behavior.Format(mg.Program))
	}
	fmt.Fprintf(&b, "%v\n", em.CSource)
	res, err := encodeResult(em.Result, em.Design.Graph())
	if err != nil {
		t.Fatal(err)
	}
	b.Write(res)
	return b.Bytes()
}

// synthesizeDelta is incremental synthesis: CaptureDelta on the base
// capture, then the pipeline tail over the stage cache.
func synthesizeDelta(ctx context.Context, base *Captured, edits []Edit, cache StageCache) (*Emitted, DeltaStats, error) {
	ca, err := CaptureDelta(base, edits)
	if err != nil {
		return nil, DeltaStats{}, err
	}
	return SynthesizeCaptured(ctx, ca, cache)
}

// TestDeltaByteIdenticalToFull is the acceptance property for
// incremental synthesis: for every edit kind and every registered
// algorithm, CaptureDelta + SynthesizeCaptured over a warm stage cache
// produces exactly the bytes a cold full synthesis of the edited design
// produces.
func TestDeltaByteIdenticalToFull(t *testing.T) {
	ctx := context.Background()
	for _, designName := range []string{"Podium Timer 3", "Two-Zone Security", "Noise At Night Detector"} {
		entry := designs.Lookup(designName)
		if entry == nil {
			t.Fatalf("unknown design %q", designName)
		}
		for _, alg := range core.Algorithms() {
			base := entry.Build()
			if alg == "exhaustive" && len(base.InnerBlocks()) > 10 {
				continue
			}
			opts := Options{Algorithm: Algorithm(alg)}
			scns := editScenarios(base)
			if len(scns) == 0 {
				t.Fatalf("%s: no edit scenarios", designName)
			}
			for scn, edits := range scns {
				t.Run(fmt.Sprintf("%s/%s/%s", designName, alg, scn), func(t *testing.T) {
					cache := newMapStageCache()
					baseCa, err := Capture(entry.Build(), opts)
					if err != nil {
						t.Fatal(err)
					}
					// Warm: full synthesis of the base populates the
					// partitioned stage and the per-partition artifacts.
					if _, _, err := SynthesizeCaptured(ctx, baseCa, cache); err != nil {
						t.Fatalf("warm run: %v", err)
					}

					inc, stats, err := synthesizeDelta(ctx, baseCa, edits, cache)
					if err != nil {
						t.Fatalf("delta: %v", err)
					}

					edited, err := ApplyEdits(entry.Build(), edits)
					if err != nil {
						t.Fatal(err)
					}
					full, err := Run(ctx, edited, opts)
					if err != nil {
						t.Fatalf("cold full run: %v", err)
					}

					if got, want := emittedBytes(t, inc), emittedBytes(t, full); !bytes.Equal(got, want) {
						t.Errorf("delta output differs from cold full synthesis\n--- delta\n%.2000s\n--- full\n%.2000s", got, want)
					}
					if got, want := len(inc.Result.Partitions), stats.Adopted+stats.Recomputed; got != want {
						t.Errorf("stats cover %d partitions, result has %d", want, got)
					}
					// Non-structural edits must adopt the base
					// partitioning outright and recompute at most the
					// one partition the edited block sits in.
					if scn == "param-tweak" || scn == "program-override" {
						if !stats.PartitionFromCache {
							t.Errorf("%s: partitioning was recomputed, want adopted", scn)
						}
						if stats.Recomputed > 1 {
							t.Errorf("%s: recomputed %d partitions, want <= 1", scn, stats.Recomputed)
						}
					}
				})
			}
		}
	}
}

// TestApplyEditsRejects pins the validation behavior of ApplyEdits:
// unknown targets, malformed ops, and edits that leave the design
// invalid all fail with errors naming the offending edit.
func TestApplyEditsRejects(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	for _, tc := range []struct {
		name  string
		edits []Edit
	}{
		{"unknown op", []Edit{{Op: "rename-block", Block: "x"}}},
		{"unknown param block", []Edit{{Op: "set-param", Block: "nope", Param: "p", Value: 1}}},
		{"unknown removal", []Edit{{Op: "remove-block", Block: "nope"}}},
		{"duplicate add", []Edit{{Op: "add-block", Block: d.BlockNames()[0], Type: "whatever"}}},
		{"bad program", []Edit{{Op: "set-program", Block: d.BlockNames()[0], Program: "run {"}}},
		{"unknown wire", []Edit{{Op: "remove-wire", To: "nope", ToPort: "in"}}},
		{"add-block without type", []Edit{{Op: "add-block", Block: "x"}}},
	} {
		if _, err := ApplyEdits(d, tc.edits); err == nil {
			t.Errorf("%s: ApplyEdits accepted %v", tc.name, tc.edits)
		}
	}
	// Removing a load-bearing block without rewiring leaves undriven
	// inputs: rejected by validation, not silently synthesized.
	inner := d.InnerBlocks()
	g := d.Graph()
	if len(inner) > 0 && len(g.AllOutEdges(inner[0])) > 0 {
		if _, err := ApplyEdits(d, []Edit{{Op: "remove-block", Block: g.Name(inner[0])}}); err == nil {
			t.Error("removing a consumed block without rewiring was accepted")
		}
	}
}

// TestApplyEditsDeterministic: equal inputs produce fingerprint-equal
// designs (the property delta caching keys on).
func TestApplyEditsDeterministic(t *testing.T) {
	entry := designs.Lookup("Two-Zone Security")
	for scn, edits := range editScenarios(entry.Build()) {
		a, err := ApplyEdits(entry.Build(), edits)
		if err != nil {
			t.Fatalf("%s: %v", scn, err)
		}
		b, err := ApplyEdits(entry.Build(), edits)
		if err != nil {
			t.Fatalf("%s: %v", scn, err)
		}
		if netlist.Fingerprint(a) != netlist.Fingerprint(b) {
			t.Errorf("%s: ApplyEdits is not deterministic", scn)
		}
	}
}

// TestPatchInstancesMatchesRebuild pins ApplyEdits' parameter/program
// fast path to the rebuild: for each Table 1 design, the same edits
// plus a no-op rewire (which forces the rebuild) produce an equal
// design, and an invalid parameter fails with the same error.
func TestPatchInstancesMatchesRebuild(t *testing.T) {
	for _, e := range designs.Library() {
		base := e.Build()
		g := base.Graph()
		scns := editScenarios(base)
		var rewire []Edit
		for _, id := range base.InnerBlocks() {
			if drv := g.Driver(id, 0); drv != nil {
				to, toPort := g.Name(id), base.Type(id).Inputs[0]
				rewire = []Edit{
					{Op: "remove-wire", To: to, ToPort: toPort},
					{Op: "add-wire", From: g.Name(drv.From.Node), FromPort: base.Type(drv.From.Node).Outputs[drv.From.Pin], To: to, ToPort: toPort},
				}
				break
			}
		}
		first := g.Name(base.InnerBlocks()[0])
		for name, edits := range map[string][]Edit{
			"param-tweak":      scns["param-tweak"],
			"program-override": scns["program-override"],
			"both":             append(append([]Edit(nil), scns["program-override"]...), scns["param-tweak"]...),
			"bad-param":        {{Op: "set-program", Block: first, Program: scns["program-override"][0].Program}, {Op: "set-param", Block: first, Param: "NO_SUCH_PARAM", Value: 1}},
		} {
			if len(edits) == 0 {
				continue
			}
			fast, fastErr := ApplyEdits(base, edits)
			slow, slowErr := ApplyEdits(base, append(append([]Edit(nil), edits...), rewire...))
			if (fastErr == nil) != (slowErr == nil) || (fastErr != nil && fastErr.Error() != slowErr.Error()) {
				t.Fatalf("%s/%s: fast path error %v, rebuild error %v", e.Name, name, fastErr, slowErr)
			}
			if fastErr != nil {
				continue
			}
			if netlist.Fingerprint(fast) != netlist.Fingerprint(slow) {
				t.Errorf("%s/%s: fast path design differs from the rebuild", e.Name, name)
			}
			if fast.Graph() != g {
				t.Errorf("%s/%s: fast path rebuilt the graph", e.Name, name)
			}
		}
	}
}

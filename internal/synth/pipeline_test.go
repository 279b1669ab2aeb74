package synth_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestPipelineStagesMatchSynthesize runs the pipeline stage by stage
// and checks the result is identical to the one-shot wrapper.
func TestPipelineStagesMatchSynthesize(t *testing.T) {
	for _, name := range []string{"Podium Timer 3", "Noise At Night Detector", "Timed Passage"} {
		d := designs.Lookup(name).Build()

		ca, err := synth.Capture(d, synth.Options{})
		if err != nil {
			t.Fatalf("%s: capture: %v", name, err)
		}
		if ca.Algorithm != "paredown" {
			t.Errorf("%s: default algorithm = %q, want paredown", name, ca.Algorithm)
		}
		if !ca.Constraints.RequireConvex {
			t.Errorf("%s: capture did not apply the convexity guard", name)
		}
		pt, _, err := ca.PartitionCached(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: partition: %v", name, err)
		}
		mg, _, err := pt.MergeCached(nil)
		if err != nil {
			t.Fatalf("%s: merge: %v", name, err)
		}
		if len(mg.Merges) != len(pt.Result.Partitions) {
			t.Fatalf("%s: %d merges for %d partitions", name, len(mg.Merges), len(pt.Result.Partitions))
		}
		em, err := mg.Emit()
		if err != nil {
			t.Fatalf("%s: emit: %v", name, err)
		}

		out, err := synth.Synthesize(designs.Lookup(name).Build(), synth.Options{})
		if err != nil {
			t.Fatalf("%s: synthesize: %v", name, err)
		}
		if got, want := netlist.Serialize(em.Synthesized), netlist.Serialize(out.Synthesized); got != want {
			t.Errorf("%s: staged pipeline and Synthesize disagree:\n%s\nvs\n%s", name, got, want)
		}
		if em.Result.Cost() != out.Result.Cost() {
			t.Errorf("%s: cost %d vs %d", name, em.Result.Cost(), out.Result.Cost())
		}
	}
}

// TestPipelineAdopt checks the bring-your-own-partitioner path: Adopt →
// Merge → Emit equals Realize.
func TestPipelineAdopt(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	c := core.DefaultConstraints
	c.RequireConvex = true
	res, err := core.Partition(d.Graph(), "paredown", c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ca := &synth.Captured{Design: d, Constraints: c, Algorithm: res.Algorithm}
	mg, _, err := ca.Adopt(res).MergeCached(nil)
	if err != nil {
		t.Fatal(err)
	}
	em, err := mg.Emit()
	if err != nil {
		t.Fatal(err)
	}

	out, err := synth.Realize(designs.Lookup("Podium Timer 3").Build(), res, c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := netlist.Serialize(em.Synthesized), netlist.Serialize(out.Synthesized); got != want {
		t.Errorf("Adopt path and Realize disagree:\n%s\nvs\n%s", got, want)
	}
}

// TestPipelineVerifyStage runs the optional fifth stage.
func TestPipelineVerifyStage(t *testing.T) {
	d := designs.Lookup("Noise At Night Detector").Build()
	em, err := synth.Run(context.Background(), d, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := em.VerifyCached(nil, synth.VerifyOptions{Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Mismatches) > 0 {
		t.Errorf("verification found mismatches: %v", v.Mismatches)
	}
	// The verified artifact still carries the whole provenance chain.
	if v.Design != d || v.Synthesized == nil || v.Result == nil {
		t.Error("verified artifact lost provenance fields")
	}
}

// TestPipelineCancellation checks that a cancelled context aborts the
// partition stage through core.Options.
func TestPipelineCancellation(t *testing.T) {
	d := designs.Lookup("Timed Passage").Build()
	ca, err := synth.Capture(d, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ca.PartitionCached(ctx, nil); err == nil {
		t.Error("partition with cancelled context succeeded, want error")
	}

	// The exhaustive search observes cancellation mid-run too.
	ca2, err := synth.Capture(d, synth.Options{Algorithm: synth.ExhaustiveSearch})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ca2.PartitionCached(ctx, nil); err == nil {
		t.Error("exhaustive partition with cancelled context succeeded, want error")
	}
}

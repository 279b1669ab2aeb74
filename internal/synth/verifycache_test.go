package synth

import (
	"context"
	"math"
	"testing"

	"repro/internal/designs"
	"repro/internal/sim"
)

// emitted runs the pipeline through Emit for a library design.
func emitted(t *testing.T, name string) *Emitted {
	t.Helper()
	d := designs.Lookup(name).Build()
	e, err := Run(context.Background(), d, Options{})
	if err != nil {
		t.Fatalf("synthesizing %s: %v", name, err)
	}
	return e
}

func TestVerifyCached(t *testing.T) {
	e := emitted(t, "Night Lamp Controller")
	cache := newMapStageCache()
	opts := VerifyOptions{Steps: 12}

	if _, _, ok := e.Captured.LookupVerified(cache, opts); ok {
		t.Fatal("LookupVerified hit an empty cache")
	}
	gets := cache.gets
	cold, err := e.VerifyCached(cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Mismatches) != 0 {
		t.Fatalf("library design failed verification: %v", cold.Mismatches)
	}
	if cache.puts != 1 {
		t.Errorf("puts = %d, want 1", cache.puts)
	}
	// VerifyCached only writes: the stage's one read is LookupVerified.
	if n := cache.gets - gets; n != 0 {
		t.Errorf("VerifyCached read the cache %d times, want 0", n)
	}

	// The capture-level read sees the artifact without the emitted
	// artifact in hand.
	n, mm, ok := e.Captured.LookupVerified(cache, opts)
	if !ok {
		t.Fatal("LookupVerified missed after VerifyCached populated the cache")
	}
	if n != opts.steps() {
		t.Errorf("recorded stimulus count = %d, want %d", n, opts.steps())
	}
	if len(mm) != 0 {
		t.Errorf("LookupVerified mismatches = %v, want none", mm)
	}
}

// TestVerifyStageKeySchedule checks the key discriminates on what the
// verification actually replays — and only on that.
func TestVerifyStageKeySchedule(t *testing.T) {
	e := emitted(t, "Night Lamp Controller")
	ca := e.Captured

	base := ca.VerifyStageKey(VerifyOptions{Steps: 12})
	if base.Aux == "" {
		t.Fatal("verify key has no Aux component")
	}
	if got := ca.VerifyStageKey(VerifyOptions{Steps: 12, MaxEvents: 7}); got != base {
		t.Errorf("event budget changed the key: %v vs %v", got, base)
	}
	if got := ca.VerifyStageKey(VerifyOptions{Steps: 13}); got == base {
		t.Error("step count did not change the key")
	}
	if got := ca.VerifyStageKey(VerifyOptions{Steps: 12, Seed: 2}); got == base {
		t.Error("seed did not change the key")
	}
	// An explicit schedule equal to the materialized random one shares
	// its address: the key depends on the concrete schedule, not on how
	// it was specified.
	opts := (VerifyOptions{Steps: 12}).Resolved(ca.Design)
	if got := ca.VerifyStageKey(VerifyOptions{Stimuli: opts.Stimuli}); got != base {
		t.Errorf("explicit identical schedule got a different key: %v vs %v", got, base)
	}
	// Aux must not leak into partition-stage keys.
	if k := ca.StageKey(); k.Aux != "" {
		t.Errorf("capture StageKey carries Aux %q", k.Aux)
	}
}

func TestVerifyCachedBadEntryFallsBack(t *testing.T) {
	e := emitted(t, "Night Lamp Controller")
	cache := newMapStageCache()
	opts := VerifyOptions{Steps: 8}
	cache.PutStage(StageVerified, e.VerifyStageKey(opts), []byte("not json"))

	if _, _, ok := e.Captured.LookupVerified(cache, opts); ok {
		t.Error("undecodable entry reported as a hit")
	}
	v, err := e.VerifyCached(cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Mismatches) != 0 {
		t.Fatalf("verification failed: %v", v.Mismatches)
	}
	// The fresh outcome replaces the undecodable entry.
	if _, _, ok := e.Captured.LookupVerified(cache, opts); !ok {
		t.Error("LookupVerified missed after VerifyCached rewrote the entry")
	}
}

func TestStimuliHash(t *testing.T) {
	a := []sim.Stimulus{{Time: 1, Block: "s", Value: 1}}
	b := []sim.Stimulus{{Time: 1, Block: "s", Value: 1}}
	if StimuliHash(a) != StimuliHash(b) {
		t.Error("equal schedules hash differently")
	}
	b[0].Value = 0
	if StimuliHash(a) == StimuliHash(b) {
		t.Error("different schedules hash identically")
	}
	if StimuliHash(nil) != StimuliHash([]sim.Stimulus{}) {
		t.Error("nil and empty schedules hash differently")
	}
}

// TestStimuliHashGolden pins the digest of a fixed schedule. The hash
// addresses stored verified.v1, simstate.v1 and simindex.v1 entries,
// so a change to the script rendering it hashes would orphan every
// one of them: negative, zero and extreme values, large times and
// several block names must render exactly as before.
func TestStimuliHashGolden(t *testing.T) {
	stimuli := []sim.Stimulus{
		{Time: 0, Block: "s", Value: 0},
		{Time: 1, Block: "door", Value: 1},
		{Time: 10, Block: "door", Value: -1},
		{Time: 999_999_999_999, Block: "light_sensor", Value: 42},
		{Time: math.MaxInt64, Block: "s", Value: math.MaxInt64},
		{Time: math.MaxInt64, Block: "b0", Value: math.MinInt64},
		{Time: 3, Block: "s", Value: -9_000_000_000},
	}
	const want = "7d3b8d04bf58608b68c4bb456be8479ee51d3607c8fe305e4feef10ccd17ed8a"
	if got := StimuliHash(stimuli); got != want {
		t.Errorf("StimuliHash = %s, want %s", got, want)
	}
}

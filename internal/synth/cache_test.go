package synth

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/randgen"
)

// mapStageCache is an in-memory StageCache for tests.
type mapStageCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    int
	puts    int
}

func newMapStageCache() *mapStageCache {
	return &mapStageCache{entries: map[string][]byte{}}
}

func (c *mapStageCache) GetStage(stage string, key StageKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	raw, ok := c.entries[stage+"|"+key.String()]
	return raw, ok
}

func (c *mapStageCache) PutStage(stage string, key StageKey, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.entries[stage+"|"+key.String()] = data
}

func TestPartitionCached(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	cache := newMapStageCache()

	ca, err := Capture(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, hit, err := ca.PartitionCached(context.Background(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first PartitionCached reported a hit")
	}
	if cache.puts != 1 {
		t.Errorf("puts = %d, want 1", cache.puts)
	}

	warm, hit, err := ca.PartitionCached(context.Background(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second PartitionCached missed")
	}
	if warm.Result.Cost() != cold.Result.Cost() || warm.Result.FitChecks != cold.Result.FitChecks {
		t.Errorf("cached result differs: cost %d/%d, fitChecks %d/%d",
			warm.Result.Cost(), cold.Result.Cost(), warm.Result.FitChecks, cold.Result.FitChecks)
	}
	// The adopted artifact must flow through the rest of the pipeline
	// to the identical synthesized network.
	coldOut, _, err := cold.MergeCached(nil)
	if err != nil {
		t.Fatal(err)
	}
	warmOut, _, err := warm.MergeCached(nil)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := coldOut.Emit()
	if err != nil {
		t.Fatal(err)
	}
	we, err := warmOut.Emit()
	if err != nil {
		t.Fatal(err)
	}
	if netlist.Serialize(ce.Synthesized) != netlist.Serialize(we.Synthesized) {
		t.Error("cached partition produced a different synthesized network")
	}
}

// TestPartitionCachedAcrossBuilds stores a result from one build of a
// design and serves it to a fresh build (different *Design pointer,
// same fingerprint) — the cross-process restart scenario.
func TestPartitionCachedAcrossBuilds(t *testing.T) {
	cache := newMapStageCache()
	ca1, err := Capture(designs.Lookup("Two-Zone Security").Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := ca1.PartitionCached(context.Background(), cache); err != nil || hit {
		t.Fatalf("seed run: hit=%v err=%v", hit, err)
	}

	ca2, err := Capture(designs.Lookup("Two-Zone Security").Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, hit, err := ca2.PartitionCached(context.Background(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("fresh build of the same design missed the stage cache")
	}
	// The adopted result must be valid for the fresh build's graph.
	if err := pt.Result.Validate(ca2.Design.Graph(), ca2.Constraints); err != nil {
		t.Errorf("adopted result invalid for the fresh build: %v", err)
	}
}

func TestPartitionCachedKnobsChangeKey(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	keys := map[string]bool{}
	for _, opts := range []Options{
		{},
		{Algorithm: "aggregation"},
		{PaperMode: true},
	} {
		ca, err := Capture(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		keys[ca.StageKey().String()] = true
	}
	if len(keys) != 3 {
		t.Errorf("expected 3 distinct stage keys, got %d", len(keys))
	}
}

func TestPartitionCachedBadEntryFallsBack(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	ca, err := Capture(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapStageCache()

	// Garbage entry: recompute, don't fail. (The partitioned stage is
	// keyed on the structural fingerprint.)
	cache.PutStage(StagePartitioned, ca.StructKey(), []byte("{not json"))
	pt, hit, err := ca.PartitionCached(context.Background(), cache)
	if err != nil {
		t.Fatalf("garbage cache entry surfaced as error: %v", err)
	}
	if hit {
		t.Error("garbage cache entry reported as hit")
	}
	if pt.Result == nil || pt.Result.Cost() == 0 {
		t.Error("fallback did not compute a real result")
	}

	// Entry naming blocks of a different design: recompute.
	other, err := Capture(designs.Lookup("Two-Zone Security").Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeResult(mustPartition(t, other).Result, other.Design.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cache.PutStage(StagePartitioned, ca.StructKey(), raw)
	if _, hit, err := ca.PartitionCached(context.Background(), cache); err != nil || hit {
		t.Errorf("foreign-design entry: hit=%v err=%v, want recompute", hit, err)
	}
}

func mustPartition(t *testing.T, ca *Captured) *Partitioned {
	t.Helper()
	pt, _, err := ca.PartitionCached(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestResultWireRoundTrip(t *testing.T) {
	for _, name := range []string{"Podium Timer 3", "Noise At Night Detector", "Doorbell Extender 2"} {
		e := designs.Lookup(name)
		if e == nil {
			t.Fatalf("unknown design %q", name)
		}
		d := e.Build()
		ca, err := Capture(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pt := mustPartition(t, ca)
		raw, err := encodeResult(pt.Result, d.Graph())
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeResult(raw, d.Graph())
		if err != nil {
			t.Fatal(err)
		}
		raw2, err := encodeResult(back, d.Graph())
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(raw2) {
			t.Errorf("%s: wire form does not round-trip:\n%s\nvs\n%s", name, raw, raw2)
		}
		if err := back.Validate(d.Graph(), ca.Constraints); err != nil {
			t.Errorf("%s: decoded result invalid: %v", name, err)
		}
	}
}

func TestResultWireRejectsUnknownVersion(t *testing.T) {
	d := designs.Lookup("Podium Timer 3").Build()
	raw, _ := json.Marshal(resultWire{Version: 99, Algorithm: "paredown"})
	if _, err := decodeResult(raw, d.Graph()); err == nil {
		t.Error("unknown wire version accepted")
	}
}

// TestArtifactMemosStayWithinBudget decodes a long run of distinct
// partition and merge artifacts — the adopt path's first step — whose
// bytes together overflow each memo's budget, and checks after every
// decode that resultMemo and artifactMemo hold no more artifact bytes
// than their budgets and that each has reset at least once.
func TestArtifactMemosStayWithinBudget(t *testing.T) {
	const artifacts, width = 100, 3000 // each artifact about 50 KB
	resets := map[string]int{}
	check := func(name string, used *int, now, budget int) {
		if now > budget {
			t.Fatalf("%s holds %d artifact bytes, budget %d", name, now, budget)
		}
		if now < *used {
			resets[name]++
		}
		*used = now
	}
	var resultUsed, artifactUsed int
	for i := 0; i < artifacts; i++ {
		names := make([]string, width)
		for j := range names {
			names[j] = fmt.Sprintf("d%d_block%05d", i, j)
		}
		raw, err := json.Marshal(resultWire{Version: resultWireVersion, Algorithm: "paredown", Partitions: [][]string{names}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := memoizedResultWire(raw); err != nil {
			t.Fatal(err)
		}
		check("resultMemo", &resultUsed, resultMemo.Used(), resultMemoBytes)

		// A long comment sizes the program text without slowing its parse.
		prog := "/* " + strings.Join(names, " ") + " */ input in0; output out0; run { out0 = in0; }"
		if raw, err = json.Marshal(mergedWire{Version: mergedWireVersion, Program: prog, UsedIn: 1, UsedOut: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := memoizedDecode(raw); err != nil {
			t.Fatal(err)
		}
		check("artifactMemo", &artifactUsed, artifactMemo.Used(), artifactMemoBytes)
	}
	if resets["resultMemo"] == 0 || resets["artifactMemo"] == 0 {
		t.Fatalf("%d distinct artifacts never reset both memos: resets %v", artifacts, resets)
	}
}

// TestEmitMemoizesAdoptedMergesOnly: Emit memoizes generated C only for
// merges adopted from the stage cache, whose programs later adoptions
// present again. Cold syntheses of distinct designs leave csrcMemo as
// it was, while a delta that adopts its unedited partitions' merges
// memoizes their C and an identical delta after it hits every entry.
func TestEmitMemoizesAdoptedMergesOnly(t *testing.T) {
	ctx := context.Background()
	before := csrcMemo.Used()
	for seed := int64(1); seed <= 4; seed++ {
		d, err := randgen.Generate(randgen.Params{InnerBlocks: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(ctx, d, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if used := csrcMemo.Used(); used != before {
		t.Errorf("cold syntheses grew csrcMemo from %d to %d entries", before, used)
	}

	d := designs.Lookup("Timed Passage").Build()
	edits := editScenarios(d)["param-tweak"]
	if edits == nil {
		t.Fatal("no parameter to tweak")
	}
	cache := newMapStageCache()
	base, err := Capture(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SynthesizeCaptured(ctx, base, cache); err != nil {
		t.Fatal(err)
	}
	delta := func() (*Emitted, int) {
		ca, err := CaptureDelta(base, edits)
		if err != nil {
			t.Fatal(err)
		}
		em, ds, err := SynthesizeCaptured(ctx, ca, cache)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Adopted == 0 {
			t.Fatal("delta adopted no merge")
		}
		return em, csrcMemo.Used()
	}
	delta()
	em, used := delta()
	_, again := delta()
	if again != used {
		t.Errorf("an identical adopting delta grew csrcMemo from %d to %d entries", used, again)
	}
	for pi, mg := range em.Merges {
		name := fmt.Sprintf("p%d", pi)
		c, ok := csrcMemo.Get(csrcKey{mg.Program, name})
		if em.adopted[pi] != ok {
			t.Errorf("%s: adopted %v, memoized %v", name, em.adopted[pi], ok)
		}
		if ok && c != em.CSource[name] {
			t.Errorf("%s: memoized C differs from the emitted C", name)
		}
	}
}

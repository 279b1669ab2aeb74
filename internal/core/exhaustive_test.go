package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/randgen"
)

func TestExhaustiveChain(t *testing.T) {
	g := chainDesign(4)
	res, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, DefaultConstraints); err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 1 {
		t.Fatalf("optimal chain cost = %d, want 1", res.Cost())
	}
}

func TestExhaustiveParallelGates(t *testing.T) {
	g := parallelGates(3)
	res, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 3 || len(res.Partitions) != 0 {
		t.Fatalf("result = %v", res)
	}
}

func TestExhaustiveConvergent(t *testing.T) {
	g := convergent()
	res, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 1 {
		t.Fatalf("optimal convergent cost = %d, want 1", res.Cost())
	}
}

func TestExhaustiveNoInnerBlocks(t *testing.T) {
	g := chainDesign(0)
	res, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 0 || len(res.Partitions) != 0 {
		t.Fatalf("empty design result = %v", res)
	}
}

func TestExhaustiveOptimalAtMostPareDownProperty(t *testing.T) {
	// The defining relationship of Tables 1 and 2: exhaustive cost <=
	// PareDown cost, always.
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		g := randomTestDAG(rng, 1+rng.Intn(8))
		c := Constraints{MaxInputs: 1 + rng.Intn(3), MaxOutputs: 1 + rng.Intn(3)}
		pd, err := PareDown(g, c, PareDownOptions{})
		if err != nil {
			return false
		}
		ex, err := Exhaustive(g, c, ExhaustiveOptions{})
		if err != nil {
			return false
		}
		if ex.Validate(g, c) != nil {
			return false
		}
		return ex.Cost() <= pd.Cost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveBoundMatchesUnbounded(t *testing.T) {
	// Branch-and-bound and the permanent-I/O prune must not change the
	// optimum of the seed reference's unbounded search, only the node
	// count, on either engine.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		g := randomTestDAG(rng, 1+rng.Intn(6))
		slow, err := seedExhaustive(g, DefaultConstraints, seedExhaustiveOptions{DisableBound: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, family := range []bool{true, false} {
			fast, err := exhaustive(g, DefaultConstraints, ExhaustiveOptions{}, family)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Cost() != slow.Cost() {
				t.Fatalf("trial %d, family engine %v: bounded cost %d != unbounded cost %d", trial, family, fast.Cost(), slow.Cost())
			}
			if fast.NodesVisited > slow.NodesVisited {
				t.Fatalf("trial %d, family engine %v: bound increased nodes (%d > %d)", trial, family, fast.NodesVisited, slow.NodesVisited)
			}
		}
	}
}

// TestExhaustiveEmptyPartitions pins the result when PareDown accepts
// no partition and nothing beats it: each engine returns cost 3 with
// Partitions empty but not nil.
func TestExhaustiveEmptyPartitions(t *testing.T) {
	g := parallelGates(3) // optimum is 3 with no partitions
	for _, family := range []bool{true, false} {
		res, err := exhaustive(g, DefaultConstraints, ExhaustiveOptions{}, family)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost() != 3 || res.Partitions == nil || len(res.Partitions) != 0 {
			t.Fatalf("family engine %v: cost %d, partitions %#v; want cost 3 and an empty, non-nil list", family, res.Cost(), res.Partitions)
		}
	}
}

// TestExhaustiveCancellation cancels a 40-block search that runs for
// more than 10 s uncancelled on either engine: Exhaustive's own, the
// family engine here, and the permanent-demand engine alone.
func TestExhaustiveCancellation(t *testing.T) {
	g := randomTestDAG(rand.New(rand.NewSource(31)), 40)
	for _, engine := range []struct {
		name   string
		family bool
	}{{"family", true}, {"permanent-demand", false}} {
		t.Run(engine.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := exhaustive(g, DefaultConstraints, ExhaustiveOptions{Ctx: ctx}, engine.family)
			if err == nil {
				t.Fatal("search finished before the deadline: the design is too small to exercise cancellation")
			}
			if err != context.DeadlineExceeded {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
		})
	}
}

func TestExhaustiveConvexMode(t *testing.T) {
	g := convergent()
	c := Constraints{MaxInputs: 2, MaxOutputs: 2, RequireConvex: true}
	res, err := Exhaustive(g, c, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, c); err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 1 {
		t.Fatalf("convex optimal cost = %d", res.Cost())
	}
}

// TestExhaustiveLooseBudgets runs 30-block randgen designs at an 8x8
// budget, where the fitting groups number in the millions: the family
// engine must give its list up early and leave the search to the
// permanent-demand engine, which solves each in well under a
// millisecond. Each call must finish within 100 ms (300 ms under the
// race detector) and allocate under 16 MB, and its result must be valid
// and cost no more than PareDown's. Then every budget shape that
// Constraints.Validate accepts, from 1 to 64 ports a side, must still
// work on a 13-block design.
func TestExhaustiveLooseBudgets(t *testing.T) {
	limit := 100 * time.Millisecond
	if raceEnabled {
		limit *= 3
	}
	check := func(name string, g *graph.Graph, c Constraints) {
		t.Helper()
		pd, err := PareDown(g, c, PareDownOptions{})
		if err != nil {
			t.Fatalf("%s: PareDown: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := Exhaustive(g, c, ExhaustiveOptions{})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Validate(g, c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.Cost() > pd.Cost() {
			t.Errorf("%s: cost %d, PareDown's %d", name, res.Cost(), pd.Cost())
		}
		if elapsed > limit {
			t.Errorf("%s: took %v, want at most %v", name, elapsed, limit)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 16<<20 {
			t.Errorf("%s: allocated %d bytes, want under 16 MB", name, bytes)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := randgen.MustGenerate(randgen.Params{InnerBlocks: 30, Seed: seed}).Graph()
		check(fmt.Sprintf("30 blocks, seed %d, 8x8", seed), g, Constraints{MaxInputs: 8, MaxOutputs: 8})
	}
	g := randgen.MustGenerate(randgen.Params{InnerBlocks: 13, Seed: 1}).Graph()
	sides := []int{1, 2, 3, 5, 8, 16, 33, 64}
	for _, in := range sides {
		for _, out := range sides {
			check(fmt.Sprintf("13 blocks, %dx%d", in, out), g, Constraints{MaxInputs: in, MaxOutputs: out})
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
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
	// optimum, only the node count.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		g := randomTestDAG(rng, 1+rng.Intn(6))
		fast, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{DisableBound: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Cost() != slow.Cost() {
			t.Fatalf("trial %d: bounded cost %d != unbounded cost %d", trial, fast.Cost(), slow.Cost())
		}
		if fast.NodesVisited > slow.NodesVisited {
			t.Fatalf("trial %d: bound increased nodes (%d > %d)", trial, fast.NodesVisited, slow.NodesVisited)
		}
	}
}

func TestExhaustiveSeededBound(t *testing.T) {
	g := parallelGates(3) // optimum is 3 with no partitions
	// Seeding with the optimum: nothing strictly better exists.
	_, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{InitialBound: 3})
	if !IsSeedStands(err) {
		t.Fatalf("err = %v, want seed-stands", err)
	}
	// Seeding with a loose bound still finds the optimum.
	res, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{InitialBound: 3 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 3 {
		t.Fatalf("seeded cost = %d", res.Cost())
	}
}

func TestExhaustiveCancellation(t *testing.T) {
	g := randomTestDAG(rand.New(rand.NewSource(31)), 40)
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{Ctx: ctx, Workers: workers})
			if err == nil {
				t.Skip("search finished before the deadline on this machine")
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

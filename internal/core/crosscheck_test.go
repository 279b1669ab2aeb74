package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/graph"
	"repro/internal/randgen"
)

// The v2 partitioning engine (bitset node sets, incremental fit
// checks, both exhaustive engines) must be observably identical to
// the seed algorithms it replaced: same cost, same coverage, same
// partitions, and every result valid. These tests drive the registry
// entry points against the preserved seed implementations (see
// seedref_test.go) over the paper's 15 library designs and a seeded
// random population.

// crosscheckGraphs returns the 15 library designs plus 20 seeded
// random designs (3 to 22 inner blocks).
func crosscheckGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, e := range designs.Library() {
		out["lib/"+e.Name] = e.Build().Graph()
	}
	for i := 0; i < 20; i++ {
		size := 3 + i
		d := randgen.MustGenerate(randgen.Params{InnerBlocks: size, Seed: int64(9000 + i)})
		out[fmt.Sprintf("rand/size=%d", size)] = d.Graph()
	}
	return out
}

func assertSameResult(t *testing.T, g *graph.Graph, c Constraints, name string, got, want *Result) {
	t.Helper()
	if err := got.Validate(g, c); err != nil {
		t.Errorf("%s: v2 result invalid: %v", name, err)
		return
	}
	if err := want.Validate(g, c); err != nil {
		t.Errorf("%s: seed result invalid: %v", name, err)
		return
	}
	if got.Cost() != want.Cost() {
		t.Errorf("%s: cost %d, seed %d", name, got.Cost(), want.Cost())
	}
	if got.Covered() != want.Covered() {
		t.Errorf("%s: covered %d, seed %d", name, got.Covered(), want.Covered())
	}
	if len(got.Partitions) != len(want.Partitions) {
		t.Errorf("%s: %d partitions, seed %d", name, len(got.Partitions), len(want.Partitions))
		return
	}
	for i := range got.Partitions {
		if !got.Partitions[i].Equal(want.Partitions[i]) {
			t.Errorf("%s: partition %d = %v, seed %v", name, i, got.Partitions[i], want.Partitions[i])
		}
	}
	if len(got.Uncovered) != len(want.Uncovered) {
		t.Errorf("%s: %d uncovered, seed %d", name, len(got.Uncovered), len(want.Uncovered))
		return
	}
	for i := range got.Uncovered {
		if got.Uncovered[i] != want.Uncovered[i] {
			t.Errorf("%s: uncovered[%d] = %v, seed %v", name, i, got.Uncovered[i], want.Uncovered[i])
		}
	}
}

func TestV2PareDownMatchesSeed(t *testing.T) {
	for name, g := range crosscheckGraphs(t) {
		for _, c := range []Constraints{DefaultConstraints, {MaxInputs: 3, MaxOutputs: 2}} {
			got, err := Partition(g, "paredown", c, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := seedPareDown(g, c, PareDownOptions{})
			if err != nil {
				t.Fatalf("%s: seed: %v", name, err)
			}
			assertSameResult(t, g, c, name, got, want)
			if got.FitChecks != want.FitChecks {
				t.Errorf("%s: fit checks %d, seed %d", name, got.FitChecks, want.FitChecks)
			}
		}
	}
}

func TestV2AggregationMatchesSeed(t *testing.T) {
	for name, g := range crosscheckGraphs(t) {
		got, err := Partition(g, "aggregation", DefaultConstraints, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := seedAggregation(g, DefaultConstraints)
		if err != nil {
			t.Fatalf("%s: seed: %v", name, err)
		}
		// Aggregation accepts partitions with fewer than 2 I/O-feasible
		// members only; results may legally contain none, which
		// Validate accepts. Compare without re-validating `want` since
		// the seed code is its own reference.
		assertSameResult(t, g, DefaultConstraints, name, got, want)
		if got.FitChecks != want.FitChecks {
			t.Errorf("%s: fit checks %d, seed %d", name, got.FitChecks, want.FitChecks)
		}
	}
}

func TestV2ExhaustiveMatchesSeed(t *testing.T) {
	for name, g := range crosscheckGraphs(t) {
		if len(g.PartitionableNodes()) > 13 {
			continue // the paper's practical limit; seed search explodes past it
		}
		got, err := Partition(g, "exhaustive", DefaultConstraints, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := seedExhaustive(g, DefaultConstraints, seedExhaustiveOptions{})
		if err != nil {
			t.Fatalf("%s: seed: %v", name, err)
		}
		assertSameResult(t, g, DefaultConstraints, name, got, want)
	}
}

// TestV2ExhaustiveMatchesSeedProperty compares both exhaustive engines
// with the seed reference on small random designs under random budgets:
// plain, with RequireConvex and with each inner block pinned at odds of
// one in four, a quarter of the trials each (the last quarter plain
// again). All three return the same partitions and uncovered list.
func TestV2ExhaustiveMatchesSeedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pinned := 0
	for trial := 0; trial < 600; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = randomTestDAG(rng, 1+rng.Intn(10))
		} else {
			g = randgen.MustGenerate(randgen.Params{InnerBlocks: 3 + rng.Intn(8), Seed: rng.Int63()}).Graph()
		}
		c := Constraints{MaxInputs: 1 + rng.Intn(3), MaxOutputs: 1 + rng.Intn(3)}
		switch (trial / 2) % 4 {
		case 1:
			c.RequireConvex = true
		case 2:
			for _, id := range g.InnerNodes() {
				g.SetPinned(id, rng.Intn(4) == 0)
			}
			if len(g.PartitionableNodes()) < len(g.InnerNodes()) {
				pinned++
			}
		}
		want, err := seedExhaustive(g, c, seedExhaustiveOptions{})
		if err != nil {
			t.Fatalf("trial %d: seed: %v", trial, err)
		}
		for _, family := range []bool{true, false} {
			name := fmt.Sprintf("trial %d (%+v, %d pinned, family engine %v)", trial, c, len(g.InnerNodes())-len(g.PartitionableNodes()), family)
			got, err := exhaustive(g, c, ExhaustiveOptions{}, family)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameResult(t, g, c, name, got, want)
		}
	}
	if pinned < 100 {
		t.Fatalf("%d of the 150 pinned-quarter designs have a pinned block, want at least 100", pinned)
	}
}

// TestHeteroRegistryMatchesPareDown checks the "hetero" registry
// adapter: with a single block type shaped like the constraints and
// the paper's pricing, the cost-aware acceptance rule degenerates to
// the >= 2 members rule, so the partitions must equal PareDown's.
func TestHeteroRegistryMatchesPareDown(t *testing.T) {
	for name, g := range crosscheckGraphs(t) {
		het, err := Partition(g, "hetero", DefaultConstraints, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pd, err := Partition(g, "paredown", DefaultConstraints, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if het.Cost() != pd.Cost() || len(het.Partitions) != len(pd.Partitions) {
			t.Errorf("%s: hetero cost %d/%d parts, paredown %d/%d", name,
				het.Cost(), len(het.Partitions), pd.Cost(), len(pd.Partitions))
			continue
		}
		for i := range het.Partitions {
			if !het.Partitions[i].Equal(pd.Partitions[i]) {
				t.Errorf("%s: hetero partition %d = %v, paredown %v", name, i, het.Partitions[i], pd.Partitions[i])
			}
		}
	}
}

func TestRegistryBasics(t *testing.T) {
	algos := Algorithms()
	want := map[string]bool{"paredown": true, "exhaustive": true, "aggregation": true, "hetero": true}
	for _, a := range algos {
		delete(want, a)
	}
	if len(want) != 0 {
		t.Fatalf("registry missing algorithms %v (have %v)", want, algos)
	}
	if _, err := Partition(graph.New(), "no-such-algo", DefaultConstraints, Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := Register(PartitionerFunc{AlgoName: "paredown"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register(PartitionerFunc{AlgoName: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestEvaluatorMatchesPartitionIO drives random add/remove sequences
// and compares the incremental demand against the from-scratch
// recount at every step.
func TestEvaluatorMatchesPartitionIO(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		d := randgen.MustGenerate(randgen.Params{InnerBlocks: 12 + trial, Seed: int64(500 + trial)})
		g := d.Graph()
		ev := NewEvaluator(g)
		set := graph.NewNodeSet()
		inner := g.InnerNodes()
		rng := newXorshift(uint64(trial + 1))
		for step := 0; step < 200; step++ {
			id := inner[rng.next()%uint64(len(inner))]
			if set.Has(id) {
				ev.Remove(id)
				set.Remove(id)
			} else {
				ev.Add(id)
				set.Add(id)
			}
			if got, want := ev.IO(), PartitionIO(g, set); got != want {
				t.Fatalf("trial %d step %d: incremental IO %+v, recount %+v (set %v)", trial, step, got, want, set)
			}
			if ev.Len() != set.Len() {
				t.Fatalf("trial %d step %d: evaluator len %d, set %d", trial, step, ev.Len(), set.Len())
			}
		}
	}
}

// xorshift is a tiny deterministic RNG so the evaluator test does not
// depend on math/rand ordering.
type xorshift struct{ s uint64 }

func newXorshift(seed uint64) *xorshift { return &xorshift{s: seed*2685821657736338717 + 1} }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

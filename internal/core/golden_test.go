package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/designs"
	"repro/internal/graph"
	"repro/internal/randgen"
)

// populationGoldenDigest pins PareDown's exact output over the paper's
// evaluation population (see goldenPopulation): every partition, the
// uncovered list and the fit-check count of every run. Any change to
// the heuristic's choices moves it.
const populationGoldenDigest = "e8b89caf437bf307d09f754b2724dc11dc1fa9522c48f3f9cbb49e01bbb86caa"

// goldenDesign is one named design of the golden population.
type goldenDesign struct {
	name string
	g    *graph.Graph
}

// goldenPopulation returns the 15 Table 1 designs, the first 20
// designs of the benchmark's Table 2 population at each size (seed
// 10_000_019 + size*100_003 + i) and the Section 5.2 scaling designs
// (seed = size), in a fixed order.
func goldenPopulation() []goldenDesign {
	var out []goldenDesign
	for _, e := range designs.Library() {
		out = append(out, goldenDesign{"lib/" + e.Name, e.Build().Graph()})
	}
	for _, size := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 25, 35, 45} {
		for i := 0; i < 20; i++ {
			d := randgen.MustGenerate(randgen.Params{InnerBlocks: size, Seed: 10_000_019 + int64(size)*100_003 + int64(i)})
			out = append(out, goldenDesign{fmt.Sprintf("t2-%d-%d", size, i), d.Graph()})
		}
	}
	for _, size := range []int{50, 100, 200, 465} {
		d := randgen.MustGenerate(randgen.Params{InnerBlocks: size, Seed: int64(size)})
		out = append(out, goldenDesign{fmt.Sprintf("scale-%d", size), d.Graph()})
	}
	return out
}

// hashResult writes one result to h: each partition's sorted members,
// the uncovered list and the fit-check count, with lengths so the
// encoding is unambiguous.
func hashResult(h hash.Hash, r *Result) {
	var buf []byte
	put := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	put(len(r.Partitions))
	for _, p := range r.Partitions {
		members := p.Sorted()
		put(len(members))
		for _, id := range members {
			put(int(id))
		}
	}
	put(len(r.Uncovered))
	for _, id := range r.Uncovered {
		put(int(id))
	}
	put(r.FitChecks)
	h.Write(buf)
}

// TestPareDownPopulationGolden runs PareDown under the paper's 2x2
// budget, a 3x2 budget and without tie-breaks, plus the "hetero"
// registry entry, over the whole golden population and compares one
// digest of every result against the pinned value.
func TestPareDownPopulationGolden(t *testing.T) {
	runs := []struct {
		name string
		run  func(g *graph.Graph) (*Result, error)
	}{
		{"paredown-2x2", func(g *graph.Graph) (*Result, error) {
			return PareDown(g, DefaultConstraints, PareDownOptions{})
		}},
		{"paredown-3x2", func(g *graph.Graph) (*Result, error) {
			return PareDown(g, Constraints{MaxInputs: 3, MaxOutputs: 2}, PareDownOptions{})
		}},
		{"paredown-no-tie-breaks", func(g *graph.Graph) (*Result, error) {
			return PareDown(g, DefaultConstraints, PareDownOptions{DisableTieBreaks: true})
		}},
		{"hetero", func(g *graph.Graph) (*Result, error) {
			return Partition(g, "hetero", DefaultConstraints, Options{})
		}},
	}
	h := sha256.New()
	fitChecks := 0
	for _, d := range goldenPopulation() {
		for _, r := range runs {
			res, err := r.run(d.g)
			if err != nil {
				t.Fatalf("%s %s: %v", d.name, r.name, err)
			}
			hashResult(h, res)
			fitChecks += res.FitChecks
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != populationGoldenDigest {
		t.Fatalf("population digest %s, want %s (fit checks %d)", got, populationGoldenDigest, fitChecks)
	}
}

// exhaustiveGoldenDigest pins the exhaustive search's exact output over
// the golden designs it can finish (see exhaustiveGoldenDesigns): every
// partition and the uncovered list of every run. Pruning may change
// NodesVisited, never the result.
const exhaustiveGoldenDigest = "1f08805d96598b380d096e596fefd62bdacb33faa0a8d09cb8bd074a6c59d909"

// exhaustiveGoldenDesigns returns the golden designs with at most 13
// partitionable blocks, the paper's practical limit for the optimal
// search and the benchmark's.
func exhaustiveGoldenDesigns(t *testing.T) []goldenDesign {
	t.Helper()
	var out []goldenDesign
	for _, d := range goldenPopulation() {
		if len(d.g.PartitionableNodes()) <= 13 {
			out = append(out, d)
		}
	}
	if len(out) != 232 {
		t.Fatalf("%d golden designs with at most 13 partitionable blocks, want 232", len(out))
	}
	return out
}

// TestExhaustivePopulationGolden runs the exhaustive search under the
// 2x2 budget, a 3x2 budget and the 2x2 budget with RequireConvex, each
// sequentially, plus the 2x2 budget on two workers, and compares one
// digest of every result against the pinned value.
func TestExhaustivePopulationGolden(t *testing.T) {
	runs := []struct {
		name string
		c    Constraints
		opts ExhaustiveOptions
	}{
		{"2x2", DefaultConstraints, ExhaustiveOptions{Workers: 1}},
		{"3x2", Constraints{MaxInputs: 3, MaxOutputs: 2}, ExhaustiveOptions{Workers: 1}},
		{"2x2-convex", Constraints{MaxInputs: 2, MaxOutputs: 2, RequireConvex: true}, ExhaustiveOptions{Workers: 1}},
		{"2x2-workers-2", DefaultConstraints, ExhaustiveOptions{Workers: 2}},
	}
	h := sha256.New()
	for _, d := range exhaustiveGoldenDesigns(t) {
		for _, r := range runs {
			res, err := Exhaustive(d.g, r.c, r.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", d.name, r.name, err)
			}
			hashResult(h, res)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exhaustiveGoldenDigest {
		t.Fatalf("exhaustive population digest %s, want %s", got, exhaustiveGoldenDigest)
	}
}

// TestExhaustivePopulationNodes bounds the search tree the pruning
// leaves on the golden designs: at one worker the node count is exact,
// identical from run to run.
func TestExhaustivePopulationNodes(t *testing.T) {
	const maxNodes = 500_000
	var nodes int64
	for _, d := range exhaustiveGoldenDesigns(t) {
		res, err := Exhaustive(d.g, DefaultConstraints, ExhaustiveOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		nodes += res.NodesVisited
	}
	t.Logf("%d nodes visited", nodes)
	if nodes > maxNodes {
		t.Fatalf("%d nodes visited, want at most %d", nodes, maxNodes)
	}
}

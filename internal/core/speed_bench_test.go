package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgen"
)

// Benchmarks proving the v2 partitioning engine's fit-check speedups
// against the preserved seed implementations (seedref_test.go). Run:
//
//	go test -bench . -run '^$' ./internal/core/
//
// The interesting columns are allocs/op (the seed recomputes candidate
// I/O with fresh maps on every check; v2 maintains it incrementally
// with flat counters) and ns/op.

// largescaleGraph is the Section 5.2 scaling workload: the 465-inner
// block design of examples/largescale (PareDown handled it in 80 s on
// 2005 hardware).
func largescaleGraph(b *testing.B) *graph.Graph {
	b.Helper()
	d := randgen.MustGenerate(randgen.Params{InnerBlocks: 465, Seed: 2005})
	return d.Graph()
}

func exhaustive12Graph(b *testing.B) *graph.Graph {
	b.Helper()
	d := randgen.MustGenerate(randgen.Params{InnerBlocks: 12, Seed: 1200})
	return d.Graph()
}

// BenchmarkPareDownLargescale measures the full heuristic on the
// 465-inner design: v2 (incremental Evaluator) vs the seed
// (per-fit-check map recount).
func BenchmarkPareDownLargescale(b *testing.B) {
	g := largescaleGraph(b)
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PareDown(g, DefaultConstraints, PareDownOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := seedPareDown(g, DefaultConstraints, PareDownOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPareDownTable2 measures PareDown over the golden
// population's Table 2 designs with 14 to 45 inner blocks, the sizes
// the paper partitions with PareDown alone: one op is one pass over
// the 120 designs.
func BenchmarkPareDownTable2(b *testing.B) {
	var gs []*graph.Graph
	for _, d := range goldenPopulation() {
		if n := len(d.g.InnerNodes()); strings.HasPrefix(d.name, "t2-") && n >= 14 && n <= 45 {
			gs = append(gs, d.g)
		}
	}
	if len(gs) != 120 {
		b.Fatalf("%d Table 2 designs with 14 to 45 inner blocks, want 120", len(gs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			if _, err := PareDown(g, DefaultConstraints, PareDownOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExhaustive12 measures the optimal search on a 12-inner
// random design: v2 (Exhaustive: the family engine, the pruning rules
// of Exhaustive, pooled storage), v2-permanent-demand (the engine it
// falls back to, on incremental permanent-demand groups) and the seed
// (map-based feasibility probe per node).
func BenchmarkExhaustive12(b *testing.B) {
	g := exhaustive12Graph(b)
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-permanent-demand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exhaustive(g, DefaultConstraints, ExhaustiveOptions{}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := seedExhaustive(g, DefaultConstraints, seedExhaustiveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitCheck isolates one fit check on a mid-size candidate: an
// incremental membership toggle plus O(1) demand read (v2) vs the
// from-scratch recount (seed).
func BenchmarkFitCheck(b *testing.B) {
	d := randgen.MustGenerate(randgen.Params{InnerBlocks: 48, Seed: 77})
	g := d.Graph()
	inner := g.InnerNodes()

	b.Run("evaluator-incremental", func(b *testing.B) {
		ev := NewEvaluator(g)
		for _, id := range inner {
			ev.Add(id)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := inner[i%len(inner)]
			ev.Remove(id)
			if ev.Fits(DefaultConstraints) {
				b.Fatal("48-block candidate cannot fit a 2x2 budget")
			}
			ev.Add(id)
		}
	})
	b.Run("partitionio-recount", func(b *testing.B) {
		set := graph.NewNodeSet(inner...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := inner[i%len(inner)]
			set.Remove(id)
			if seedFits(g, set, DefaultConstraints) {
				b.Fatal("48-block candidate cannot fit a 2x2 budget")
			}
			set.Add(id)
		}
	})
}

package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/randgen"
)

func TestPareDownChain(t *testing.T) {
	// A 4-chain collapses into one partition: the whole chain has 1
	// input and 1 output.
	g := chainDesign(4)
	res, err := PareDown(g, DefaultConstraints, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, DefaultConstraints); err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 1 || res.Partitions[0].Len() != 4 || res.Cost() != 1 {
		t.Fatalf("result = %v", res)
	}
	// The very first fit check succeeds: 1 fit check total.
	if res.FitChecks != 1 {
		t.Fatalf("fit checks = %d, want 1", res.FitChecks)
	}
}

func TestPareDownParallelGatesNoPartition(t *testing.T) {
	// Three pairwise-infeasible gates: no partition exists; everything
	// stays pre-defined (the Any Window Open Alarm shape from Table 1).
	g := parallelGates(3)
	res, err := PareDown(g, DefaultConstraints, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, DefaultConstraints); err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 0 || len(res.Uncovered) != 3 || res.Cost() != 3 {
		t.Fatalf("result = %v", res)
	}
}

func TestPareDownWorstCaseQuadratic(t *testing.T) {
	// The paper's worst case: n blocks that fit alone but can never
	// combine force n*(n+1)/2 trips through the fit check.
	for _, n := range []int{2, 5, 9} {
		g := parallelGates(n)
		res, err := PareDown(g, DefaultConstraints, PareDownOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n + 1) / 2; res.FitChecks != want {
			t.Errorf("n=%d: fit checks = %d, want %d", n, res.FitChecks, want)
		}
	}
}

// convergent builds the shape where look-ahead pays: two sensors fan
// into parallel chains that reconverge into one gate feeding one output.
//
//	s0 -> a0 -> a1 \
//	                m -> o
//	s1 -> b0 -> b1 /
//
// The whole inner set {a0,a1,b0,b1,m} has 2 inputs and 1 output: one
// partition. Aggregation growing from a0 cannot see that adding b's
// chain eventually helps, because intermediate clusters exceed budget.
func convergent() *graph.Graph {
	g := graph.New()
	s0 := g.MustAddNode("s0", graph.RolePrimaryInput, 0, 1)
	s1 := g.MustAddNode("s1", graph.RolePrimaryInput, 0, 1)
	a0 := g.MustAddNode("a0", graph.RoleInner, 1, 1)
	a1 := g.MustAddNode("a1", graph.RoleInner, 1, 1)
	b0 := g.MustAddNode("b0", graph.RoleInner, 1, 1)
	b1 := g.MustAddNode("b1", graph.RoleInner, 1, 1)
	m := g.MustAddNode("m", graph.RoleInner, 2, 1)
	o := g.MustAddNode("o", graph.RolePrimaryOutput, 1, 0)
	g.MustConnect(s0, 0, a0, 0)
	g.MustConnect(a0, 0, a1, 0)
	g.MustConnect(s1, 0, b0, 0)
	g.MustConnect(b0, 0, b1, 0)
	g.MustConnect(a1, 0, m, 0)
	g.MustConnect(b1, 0, m, 1)
	g.MustConnect(m, 0, o, 0)
	return g
}

func TestPareDownExploitsConvergence(t *testing.T) {
	g := convergent()
	res, err := PareDown(g, DefaultConstraints, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, DefaultConstraints); err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 1 || res.Partitions[0].Len() != 5 {
		t.Fatalf("PareDown should take the whole convergent cone: %v", res)
	}
}

func TestPareDownTrace(t *testing.T) {
	g := parallelGates(2)
	var events []TraceEvent
	res, err := PareDown(g, DefaultConstraints, PareDownOptions{
		Trace: func(ev TraceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 2 {
		t.Fatalf("cost = %d", res.Cost())
	}
	// Expected narration: candidate{g0,g1} -> remove -> reject-singleton,
	// candidate{remaining} -> reject-singleton.
	var kinds []TraceKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []TraceKind{KindCandidate, KindRemove, KindRejectSingleton, KindCandidate, KindRejectSingleton}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace kinds = %v, want %v", kinds, want)
		}
	}
	// The remove event carries the border ranking.
	if events[1].Node == graph.InvalidNode || len(events[1].Border) != 2 {
		t.Fatalf("remove event = %+v", events[1])
	}
}

func TestPareDownRankPrefersConvergencePreservingRemoval(t *testing.T) {
	// In the convergent design plus one stray expensive gate, the stray
	// gate is the border block whose removal reduces I/O most; PareDown
	// must remove it first and keep the cone.
	g := convergent()
	s2 := g.MustAddNode("s2", graph.RolePrimaryInput, 0, 1)
	s3 := g.MustAddNode("s3", graph.RolePrimaryInput, 0, 1)
	x := g.MustAddNode("x", graph.RoleInner, 2, 1)
	o2 := g.MustAddNode("o2", graph.RolePrimaryOutput, 1, 0)
	g.MustConnect(s2, 0, x, 0)
	g.MustConnect(s3, 0, x, 1)
	g.MustConnect(x, 0, o2, 0)

	var removed []graph.NodeID
	res, err := PareDown(g, DefaultConstraints, PareDownOptions{
		Trace: func(ev TraceEvent) {
			if ev.Kind == KindRemove {
				removed = append(removed, ev.Node)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 || removed[0] != x {
		t.Fatalf("first removal = %v, want x", removed)
	}
	if len(res.Partitions) != 1 || res.Partitions[0].Len() != 5 {
		t.Fatalf("result = %v", res)
	}
}

func TestPareDownConvexMode(t *testing.T) {
	g := convergent()
	c := Constraints{MaxInputs: 2, MaxOutputs: 2, RequireConvex: true}
	res, err := PareDown(g, c, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, c); err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 1 {
		t.Fatalf("convex mode lost the cone: %v", res)
	}
}

// randomTestDAG builds a random eBlock-shaped DAG for property tests.
func randomTestDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	ns := 1 + rng.Intn(4)
	sensors := make([]graph.NodeID, ns)
	for i := range sensors {
		sensors[i] = g.MustAddNode("s"+itoa(i), graph.RolePrimaryInput, 0, 1)
	}
	inner := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		nin := 1 + rng.Intn(2)
		v := g.MustAddNode("v"+itoa(i), graph.RoleInner, nin, 1)
		for pin := 0; pin < nin; pin++ {
			if len(inner) == 0 || rng.Intn(3) == 0 {
				g.MustConnect(sensors[rng.Intn(ns)], 0, v, pin)
			} else {
				g.MustConnect(inner[rng.Intn(len(inner))], 0, v, pin)
			}
		}
		inner = append(inner, v)
	}
	// Every sink inner node feeds an output block so designs are
	// well-formed.
	oi := 0
	for _, v := range inner {
		if g.Outdegree(v) == 0 {
			o := g.MustAddNode("out"+itoa(oi), graph.RolePrimaryOutput, 1, 0)
			oi++
			g.MustConnect(v, 0, o, 0)
		}
	}
	return g
}

func TestPareDownAlwaysValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		g := randomTestDAG(rng, 1+rng.Intn(20))
		c := Constraints{MaxInputs: 1 + rng.Intn(3), MaxOutputs: 1 + rng.Intn(3)}
		res, err := PareDown(g, c, PareDownOptions{})
		if err != nil {
			return false
		}
		return res.Validate(g, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPareDownConvexModeAlwaysValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		g := randomTestDAG(rng, 1+rng.Intn(16))
		c := Constraints{MaxInputs: 2, MaxOutputs: 2, RequireConvex: true}
		res, err := PareDown(g, c, PareDownOptions{})
		if err != nil {
			return false
		}
		return res.Validate(g, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRankMatchesBruteForce(t *testing.T) {
	// The O(deg) rank used by pareStep must equal the definitional
	// brute force: PartitionIO(C\{b}).Total() - PartitionIO(C).Total().
	rng := rand.New(rand.NewSource(71))
	levelsOf := func(g *graph.Graph) []int {
		l, err := g.Levels()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	f := func() bool {
		g := randomTestDAG(rng, 2+rng.Intn(18))
		inner := g.InnerNodes()
		candidate := graph.NewNodeSet()
		for _, id := range inner {
			if rng.Intn(3) != 0 {
				candidate.Add(id)
			}
		}
		if candidate.Len() < 2 {
			return true
		}
		_, ranked := pareStep(g, candidate, levelsOf(g), false)
		// pareStep's border is rankOf's, read from the evaluator's
		// member-neighbour counters: it must be exactly the members
		// graph.Border does not class NotBorder.
		inBorder := graph.NewNodeSet()
		for _, rn := range ranked {
			inBorder.Add(rn.Node)
		}
		okBorder := true
		candidate.ForEach(func(id graph.NodeID) {
			if def := g.Border(candidate, id) != graph.NotBorder; def != inBorder.Has(id) {
				t.Logf("node %v: in pareStep's border %v, graph.Border says %v (candidate %v)",
					id, inBorder.Has(id), def, candidate)
				okBorder = false
			}
		})
		if !okBorder {
			return false
		}
		base := PartitionIO(g, candidate).Total()
		for _, rn := range ranked {
			without := candidate.Clone()
			without.Remove(rn.Node)
			want := PartitionIO(g, without).Total() - base
			if rn.Rank != want {
				t.Logf("node %v: incremental %d, brute force %d (candidate %v)",
					rn.Node, rn.Rank, want, candidate)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPareDownDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomTestDAG(rng, 15)
	res1, err := PareDown(g, DefaultConstraints, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := PareDown(g, DefaultConstraints, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Partitions) != len(res2.Partitions) || res1.Cost() != res2.Cost() {
		t.Fatal("PareDown nondeterministic")
	}
	for i := range res1.Partitions {
		if !res1.Partitions[i].Equal(res2.Partitions[i]) {
			t.Fatal("partition sets differ between runs")
		}
	}
}

// TestRankerMatchesFromScratch drives PareDown's loop over random
// designs and budgets and, before every pick, holds the ranker's cached
// rank and border status of each candidate member equal to pareStep's
// from-scratch ranking, its whole ordered border equal to pareStep's
// sorted border, and its pick equal to pareStep's head.
func TestRankerMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func() bool {
		g := randomTestDAG(rng, 2+rng.Intn(30))
		c := Constraints{MaxInputs: 1 + rng.Intn(3), MaxOutputs: 1 + rng.Intn(3)}
		return rankerMatchesFromScratch(t, g, c, rng.Intn(4) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rankerMatchesFromScratch runs PareDown's loop on g under c with a
// fresh ranker and, before every pick, compares the ranker with
// pareStep: each member's rank and border status, the ordered border,
// and the pick. It also holds every member's border status equal to
// graph.Border's and every border block's rank equal to the PartitionIO
// brute force. It logs the first mismatch and reports whether there was
// none.
func rankerMatchesFromScratch(t *testing.T, g *graph.Graph, c Constraints, noTieBreaks bool) bool {
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g)
	rk := &ranker{}
	inner := g.PartitionableNodes()
	rk.bind(ev, levels, inner, noTieBreaks)
	blocks := graph.NewNodeSet(inner...)
	for blocks.Len() > 0 {
		rk.reset(blocks)
		for {
			candidate := ev.Members()
			if ev.Len() == 1 || ev.Fits(c) {
				candidate.ForEach(blocks.Remove)
				break
			}
			want, border := pareStep(g, candidate, levels, noTieBreaks)
			wantRank := map[graph.NodeID]int{}
			for _, rn := range border {
				wantRank[rn.Node] = rn.Rank
			}
			ok := true
			base := PartitionIO(g, candidate).Total()
			candidate.ForEach(func(id graph.NodeID) {
				rank, isBorder := wantRank[id]
				if rk.inBorder[id] != isBorder || (isBorder && rk.node[id].Rank != rank) {
					t.Logf("member %v of %v: cached rank %d border %v, from scratch %d border %v",
						id, candidate, rk.node[id].Rank, rk.inBorder[id], rank, isBorder)
					ok = false
				}
				if def := g.Border(candidate, id) != graph.NotBorder; def != isBorder {
					t.Logf("member %v of %v: border %v, graph.Border says %v", id, candidate, isBorder, def)
					ok = false
				}
				if isBorder {
					without := candidate.Clone()
					without.Remove(id)
					if brute := PartitionIO(g, without).Total() - base; brute != rank {
						t.Logf("member %v of %v: rank %d, brute force %d", id, candidate, rank, brute)
						ok = false
					}
				}
			})
			if got := rk.ranked(); !slices.Equal(got, border) {
				t.Logf("candidate %v: ranked border %+v, from scratch %+v", candidate, got, border)
				ok = false
			}
			got := rk.pick()
			if got != want {
				t.Logf("candidate %v: picked %+v, from scratch %+v", candidate, got, want)
				ok = false
			}
			if !ok {
				return false
			}
			rk.remove(got.Node)
		}
	}
	return true
}

// TestPareDownAllocs bounds the allocations of the Section 5.2 scaling
// run (465 inner blocks, the design of BenchmarkPareDownLargescale): a
// pare step allocates nothing and the pooled workspace holds every
// per-call array, so the count is set by the Result alone, nearly all
// of it the 96 partition clones, one allocation each: 114. The bound
// leaves room for the fresh workspaces that sync.Pool's random drops
// under the race detector can force (176 when both measured runs paid
// for one).
func TestPareDownAllocs(t *testing.T) {
	g := randgen.MustGenerate(randgen.Params{InnerBlocks: 465, Seed: 2005}).Graph()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := PareDown(g, DefaultConstraints, PareDownOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 190 {
		t.Fatalf("PareDown on 465 blocks made %.0f allocations, want at most 190", allocs)
	}
}

// TestPareLoopStopsOnStrayPick drives PareDown's pare loop on a ranker
// with a stray bucket bit planted: a block outside the candidate sits
// in the lowest rank bucket, as a ranker that failed to clear its
// buckets would leave it. pick returns that block, removing it changes
// nothing, and an unguarded loop would pick it forever; the loop must
// return an internal error instead.
func TestPareLoopStopsOnStrayPick(t *testing.T) {
	g := randomTestDAG(rand.New(rand.NewSource(5)), 12)
	c := Constraints{MaxInputs: 1, MaxOutputs: 1}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g)
	rk := &ranker{}
	inner := g.PartitionableNodes()
	rk.bind(ev, levels, inner, false)
	rk.reset(graph.NewNodeSet(inner[1:]...))
	if ev.Fits(c) {
		t.Fatal("the candidate fits at once, so the loop never picks")
	}
	stray := inner[0]
	rk.node[stray].Rank = -rk.span
	rk.flip(stray, 1)

	done := make(chan error, 1)
	go func() { done <- rk.pare(c, &Result{}, PareDownOptions{}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "internal error") {
			t.Fatalf("pare loop returned %v, want an internal error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pare loop still running after 10s: it keeps picking the stray block")
	}
}

package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// resultDigest runs one partitioning call and digests its result with
// hashResult, plus NodesVisited: a stale scratch array that only weakens
// pruning moves the count without moving the result.
func resultDigest(run func() (*Result, error)) ([sha256.Size]byte, error) {
	res, err := run()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	hashResult(h, res)
	fmt.Fprint(h, res.NodesVisited)
	return [sha256.Size]byte(h.Sum(nil)), nil
}

// filled returns s holding n copies of v, reusing its storage.
func filled[T any](s []T, n int, v T) []T {
	s = s[:0]
	for range n {
		s = append(s, v)
	}
	return s
}

// poisonWorkspace takes a workspace from the pool, fills every array
// and counter in it with values a call must reset before reading,
// sized past any golden design, and hands it back, so the next call on
// this goroutine most likely gets it.
func poisonWorkspace() {
	const n = 1024
	ws := getWorkspace()
	ws.inner = filled(ws.inner, n, 7)
	ws.nb = filled(ws.nb, n, 5)
	for id := graph.NodeID(0); id < n; id++ {
		ws.blocks.Add(id)
		ws.ev.members.Add(id)
	}
	ws.ev.px.base, ws.ev.px.n = filled(ws.ev.px.base, n, 1), 3
	ws.ev.px.drivers = filled(ws.ev.px.drivers, n, driver{node: 3, port: 1, cnt: 2})
	ws.ev.px.drvAt, ws.ev.px.cons = filled(ws.ev.px.drvAt, n, 1), filled(ws.ev.px.cons, n, 4)
	ws.ev.extIn, ws.ev.outLv = filled(ws.ev.extIn, n, 1), filled(ws.ev.outLv, n, 1)
	ws.ev.inMem, ws.ev.outMem = filled(ws.ev.inMem, n, 1), filled(ws.ev.outMem, n, 0)
	ws.ev.inputs, ws.ev.outputs = 9, 9
	ws.rk.node = filled(ws.rk.node, n, RankedNode{Node: 3, Rank: -9, Level: 9})
	ws.rk.order, ws.rk.pos = filled(ws.rk.order, n, 3), filled(ws.rk.pos, n, 0)
	ws.rk.span, ws.rk.words = 2, 1
	ws.rk.bits, ws.rk.count = filled(ws.rk.bits, n, ^uint64(0)), filled(ws.rk.count, n, 64)
	ws.rk.inBorder = filled(ws.rk.inBorder, n, true)
	s := &ws.s
	s.pos, s.groupOf = filled(s.pos, n, 0), filled(s.groupOf, n, 0)
	s.stampIn, s.stampOut = s.stampIn[:0], s.stampOut[:0]
	for p := range int64(n) {
		// Small stamps, which the first epochs of a search reuse.
		s.stampIn, s.stampOut = append(s.stampIn, p%32+1), append(s.stampOut, (p+16)%32+1)
	}
	s.epoch, s.unassigned, s.visited = 1, 5, 7
	s.incumbent = incumbent{cost: 1, covered: 99, parts: []graph.NodeSet{graph.NewNodeSet(3)}}
	for len(s.free) < 8 {
		s.free = append(s.free, &exGroup{members: graph.NewNodeSet()})
	}
	s.groups = append(s.groups[:0], s.free[:2]...)
	s.groupSets = append(s.groupSets[:0], graph.NewNodeSet(3))
	for _, grp := range s.free {
		grp.members.Add(3)
		grp.inputs, grp.outputs = 1, 1
		grp.extIn, grp.outLv = filled(grp.extIn, n, 1), filled(grp.outLv, n, 1)
	}
	f := &ws.f
	f.full, f.unassigned, f.visited, f.built = 5, 4, 9, true
	f.incumbent = incumbent{cost: 1, covered: 99, parts: []graph.NodeSet{graph.NewNodeSet(3)}}
	f.sets, f.at, f.words = filled(f.sets, n, 3), filled(f.at, n, 1), 2
	f.has, f.slot = filled(f.has, n, ^uint64(0)), filled(f.slot, n, 1)
	f.lv, f.stride = filled(f.lv, n, ^uint64(0)), 3
	f.open = filled(f.open, 3, famOpen{members: 6, off: 1, lo: 2, w: 3})
	f.px.base, f.px.n = filled(f.px.base, n, 2), 5
	f.px.drivers = filled(f.px.drivers, n, driver{node: 2, port: 3, cnt: 1})
	f.px.drvAt, f.px.cons = filled(f.px.drvAt, n, 2), filled(f.px.cons, n, 3)
	f.idx, f.near = filled(f.idx, n, 0), filled(f.near, n, ^uint64(0))
	f.extIn, f.outLv = filled(f.extIn, n, 1), filled(f.outLv, n, 1)
	f.inputs, f.outputs = 7, 7
	f.comps = filled(f.comps, n, famComp{set: 3, near: 7, lo: 0, hi: 1, outs: 1})
	f.compAt, f.ports, f.steps = filled(f.compAt, n, 0), filled(f.ports, n, 1), 1<<20
	f.tmp.Add(5)
	for len(f.groupSets) < 4 {
		f.groupSets = append(f.groupSets, graph.NewNodeSet(3, 4))
	}
	ws.put()
}

// TestWorkspacePoolSafety runs every entry point that takes a pooled
// workspace over the golden population twice: in order on one
// goroutine, then in a seeded shuffled order on several goroutines at
// once, each poisoning a workspace before every call, so the
// workspaces serve designs of every size in turn, shrink and grow
// between calls, and arrive dirty. Every result must hash as it did in
// order: no result may depend on which workspace the pool hands out.
func TestWorkspacePoolSafety(t *testing.T) {
	type job struct {
		name string
		run  func() (*Result, error)
	}
	var jobs []job
	for _, d := range goldenPopulation() {
		g := d.g
		jobs = append(jobs,
			job{d.name + "/paredown", func() (*Result, error) { return PareDown(g, DefaultConstraints, PareDownOptions{}) }},
			job{d.name + "/hetero", func() (*Result, error) { return Partition(g, "hetero", DefaultConstraints, Options{}) }},
			job{d.name + "/aggregation", func() (*Result, error) { return Aggregation(g, DefaultConstraints) }},
		)
	}
	for _, d := range exhaustiveGoldenDesigns(t) {
		g := d.g
		jobs = append(jobs, job{d.name + "/exhaustive", func() (*Result, error) {
			return Exhaustive(g, DefaultConstraints, ExhaustiveOptions{})
		}})
	}

	want := make([][sha256.Size]byte, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = resultDigest(j.run); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}

	order := rand.New(rand.NewSource(24)).Perm(len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(order); k = int(next.Add(1) - 1) {
				j := jobs[order[k]]
				poisonWorkspace()
				got, err := resultDigest(j.run)
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
				} else if got != want[order[k]] {
					t.Errorf("%s: shuffled concurrent result differs from the in-order one", j.name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAbandonedSearcherIsDropped cancels an exhaustive search on
// TestExhaustiveCancellation's design mid-branch: the context is
// cancelled up front, so the searcher stops at its first poll, 1,024
// nodes in, with groups open. Uncancelled searches of golden designs
// then run on the same goroutine, and each must give the result it
// gave before the cancellation.
func TestAbandonedSearcherIsDropped(t *testing.T) {
	big := randomTestDAG(rand.New(rand.NewSource(31)), 40)
	var picked []goldenDesign
	for i, d := range exhaustiveGoldenDesigns(t) {
		if i%20 == 0 {
			picked = append(picked, d)
		}
	}
	search := func(d goldenDesign) func() (*Result, error) {
		return func() (*Result, error) {
			return Exhaustive(d.g, DefaultConstraints, ExhaustiveOptions{})
		}
	}
	var want [][sha256.Size]byte
	for _, d := range picked {
		digest, err := resultDigest(search(d))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		want = append(want, digest)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Exhaustive(big, DefaultConstraints, ExhaustiveOptions{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	for i, d := range picked {
		got, err := resultDigest(search(d))
		if err != nil {
			t.Fatalf("%s after a cancelled search: %v", d.name, err)
		}
		if got != want[i] {
			t.Errorf("%s after a cancelled search: result differs from before", d.name)
		}
	}
}

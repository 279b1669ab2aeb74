package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/graph"
	"repro/internal/randgen"
)

// table2Counts is the Number of Designs column of the paper's Table 2,
// by inner-block count (about 9,700 designs).
var table2Counts = map[int]int{
	3: 1531, 4: 982, 5: 542, 6: 432, 7: 447, 8: 350, 9: 340,
	10: 199, 11: 170, 12: 31, 13: 6,
	14: 1311, 15: 1184, 20: 928, 25: 691, 35: 354, 45: 165,
}

// scalingSizes are the Section 5.2 scaling designs.
var scalingSizes = []int{50, 100, 200, 465}

// exhaustiveLimit is the largest design the exhaustive search runs on
// (the paper's Table 1 and 2 stop at 13 inner blocks).
const exhaustiveLimit = 13

// exhaustiveTimeout bounds one exhaustive search; a timeout fails the
// op. The search always runs with Workers: 1, so a cancellable context
// is safe (the cancellation panic needs Workers > 1).
const exhaustiveTimeout = 20 * time.Second

// partDesign is one design of the paper-partition population.
type partDesign struct {
	name  string
	g     *graph.Graph
	inner int
	// paper is the Table 1 entry for library designs, nil otherwise.
	paper *designs.Entry
}

// partOutcome is one design's result from the first pass.
type partOutcome struct {
	pd, ex   *core.Result
	pdCost   int
	exCost   int // -1 when the exhaustive search did not run
	fitCheck int
	nodes    int64
}

type paperPartition struct {
	designs  []partDesign
	genTime  time.Duration
	first    []partOutcome // results of the first complete pass
	haveRun  bool
	mismatch []string // determinism failures seen in later passes
	// refs are the workers' reference kernels (hostspeed.go).
	refs []*refKernel
	// For the last phase: each design's scaled CPU times, one per pass;
	// the wall-clock op latencies and per-pass throughputs; and the
	// per-pass host factors.
	perDesign [][]time.Duration
	wallLat   []time.Duration
	wallRate  []float64
	factors   []float64
}

// newPaperPartition generates the population: the Table 1 library,
// the Table 2 random population and the scaling designs. The population
// is fixed, like the paper's one Table 2 population: drawn per seed, it
// moved latency_p50_ms by 15% of its median across seeds against 3.5%
// across repeats of one seed. The seed orders the designs within each
// size; sizes run largest first so the pool's tail is short.
func newPaperPartition(cfg *config) (workload, error) {
	w := &paperPartition{}
	for range clients {
		w.refs = append(w.refs, newRefKernel())
	}
	for _, e := range designs.Library() {
		e := e
		d := e.Build()
		w.designs = append(w.designs, partDesign{name: e.Name, g: d.Graph(), inner: len(d.Graph().InnerNodes()), paper: &e})
	}
	start := time.Now()
	sizes := make([]int, 0, len(table2Counts))
	for size := range table2Counts {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	gen := func(size int, seed int64, name string) error {
		d, err := randgen.Generate(randgen.Params{InnerBlocks: size, Seed: seed})
		if err != nil {
			return err
		}
		w.designs = append(w.designs, partDesign{name: name, g: d.Graph(), inner: size})
		return nil
	}
	for _, size := range sizes {
		n := scaled(table2Counts[size], cfg.scale)
		for i := 0; i < n; i++ {
			if err := gen(size, 10_000_019+int64(size)*100_003+int64(i), fmt.Sprintf("t2-%d-%d", size, i)); err != nil {
				return nil, err
			}
		}
	}
	for _, size := range scalingSizes {
		if cfg.scale < 1 && size > 100 {
			continue
		}
		if err := gen(size, int64(size), fmt.Sprintf("scale-%d", size)); err != nil {
			return nil, err
		}
	}
	w.genTime = time.Since(start)
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(w.designs), func(i, j int) { w.designs[i], w.designs[j] = w.designs[j], w.designs[i] })
	sort.SliceStable(w.designs, func(i, j int) bool { return w.designs[i].inner > w.designs[j].inner })
	return w, nil
}

// scaled shrinks a count by the scale factor, keeping at least one.
func scaled(n int, scale float64) int {
	if scale >= 1 {
		return n
	}
	m := int(float64(n) * scale)
	if m < 1 {
		m = 1
	}
	return m
}

// partitionOne runs the paper's algorithms on one design.
func partitionOne(d partDesign, tr *tracer, op int) (partOutcome, error) {
	c := core.DefaultConstraints
	var out partOutcome
	var err error
	id := tr.begin("core.paredown", 0, op)
	out.pd, err = core.Partition(d.g, "paredown", c, core.Options{})
	tr.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: paredown: %w", d.name, err)
	}
	out.pdCost, out.fitCheck, out.exCost = out.pd.Cost(), out.pd.FitChecks, -1
	if len(d.g.PartitionableNodes()) > exhaustiveLimit {
		return out, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), exhaustiveTimeout)
	defer cancel()
	id = tr.begin("core.exhaustive", 0, op)
	out.ex, err = core.Exhaustive(d.g, c, core.ExhaustiveOptions{Ctx: ctx, Workers: 1})
	tr.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: exhaustive: %w", d.name, err)
	}
	out.exCost, out.nodes = out.ex.Cost(), out.ex.NodesVisited
	return out, nil
}

// measure runs whole passes over the population on two workers until
// d of wall time has elapsed; every design is one op, and every pass
// one slice. The phase runs on CPU clocks scaled by the host's speed
// (hostspeed.go): an op's latency is its worker thread's CPU time, and
// a pass lasts the process's CPU time over it, the garbage collector's
// included, divided by the workers, i.e. its wall time on two cores of
// its own. The latency quantiles are taken over each design's median
// time across the passes. Wall-clock throughput is printed beside
// (extra).
func (w *paperPartition) measure(d time.Duration, tr *tracer) phase {
	ph := phase{Start: time.Now()}
	rt := readRuntime()
	w.perDesign = make([][]time.Duration, len(w.designs))
	w.wallLat, w.wallRate, w.factors = nil, nil, nil
	var at time.Duration // the pass's start on the phase clock
	for len(ph.Cuts) == 0 || time.Since(ph.Start) < d {
		t0, c0 := time.Now(), processCPU()
		n, f, spent := w.pass(&ph, tr, at)
		cpu := scaleCPU(processCPU()-c0-spent, f)
		ph.CPU += cpu
		at += cpu / clients
		ph.Cuts = append(ph.Cuts, at)
		w.wallRate = append(w.wallRate, float64(n)/time.Since(t0).Seconds())
		w.factors = append(w.factors, f)
	}
	ph.Elapsed = at
	for _, t := range w.perDesign {
		if len(t) > 0 {
			ph.Typical = append(ph.Typical, medianDuration(t))
		}
	}
	ph.since(rt)
	return ph
}

// pass partitions every design once, its ops recorded as starting at
// the given offset. It returns how many succeeded, the host factor
// their CPU times were scaled by, and the reference kernels' CPU time.
func (w *paperPartition) pass(ph *phase, tr *tracer, at time.Duration) (int, float64, time.Duration) {
	n := len(w.designs)
	cpu := make([]time.Duration, n)
	wall := make([]time.Duration, n)
	outs := make([]partOutcome, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, ref := range w.refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // threadCPU is this goroutine's time
			defer runtime.UnlockOSThread()
			for done := 0; ; done++ {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if done%refEvery == 0 {
					ref.sample()
				}
				t0, c0 := time.Now(), threadCPU()
				outs[i], errs[i] = partitionOne(w.designs[i], tr, i)
				cpu[i], wall[i] = threadCPU()-c0, time.Since(t0)
			}
		}()
	}
	wg.Wait()
	f, spent := hostFactor(w.refs)
	ok := 0
	for i := range outs {
		if errs[i] != nil {
			ph.fail("%v", errs[i])
			continue
		}
		ok++
		lat := scaleCPU(cpu[i], f)
		ph.Lat = append(ph.Lat, lat)
		ph.Done = append(ph.Done, at)
		w.perDesign[i] = append(w.perDesign[i], lat)
		w.wallLat = append(w.wallLat, wall[i])
	}
	if !w.haveRun {
		w.first, w.haveRun = outs, true
		return ok, f, spent
	}
	for i := range outs {
		if errs[i] == nil && (outs[i].pdCost != w.first[i].pdCost || outs[i].exCost != w.first[i].exCost) {
			w.mismatch = append(w.mismatch, fmt.Sprintf("%s: costs %d/%d differ from the first pass %d/%d",
				w.designs[i].name, outs[i].pdCost, outs[i].exCost, w.first[i].pdCost, w.first[i].exCost))
		}
	}
	return ok, f, spent
}

// check validates the first pass independently of core's own
// validator: every partition obeys the 2x2 I/O budget and covers
// distinct inner blocks, exhaustive is never worse than PareDown, the
// Table 1 rows match the paper, and later passes repeat the first.
func (w *paperPartition) check() []string {
	var errs []string
	c := core.DefaultConstraints
	for i, o := range w.first {
		d := w.designs[i]
		if o.pd == nil {
			continue // the op failed and was counted already
		}
		for _, r := range []*core.Result{o.pd, o.ex} {
			if r == nil {
				continue
			}
			if err := checkResult(d.g, r, c); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %s: %v", d.name, r.Algorithm, err))
			}
		}
		if o.ex != nil && o.exCost > o.pdCost {
			errs = append(errs, fmt.Sprintf("%s: exhaustive cost %d > PareDown %d", d.name, o.exCost, o.pdCost))
		}
		if p := d.paper; p != nil && p.Name != "Two Button Light" { // documented erratum in the paper's row
			if o.pdCost != p.PaperPareDownTotal || len(o.pd.Partitions) != p.PaperPareDownProg {
				errs = append(errs, fmt.Sprintf("%s: PareDown %d/%d, paper %d/%d", d.name, o.pdCost, len(o.pd.Partitions), p.PaperPareDownTotal, p.PaperPareDownProg))
			}
			if o.ex != nil && p.PaperExhaustiveTotal >= 0 && (o.exCost != p.PaperExhaustiveTotal || len(o.ex.Partitions) != p.PaperExhaustiveProg) {
				errs = append(errs, fmt.Sprintf("%s: exhaustive %d/%d, paper %d/%d", d.name, o.exCost, len(o.ex.Partitions), p.PaperExhaustiveTotal, p.PaperExhaustiveProg))
			}
		}
	}
	return append(errs, w.mismatch...)
}

// checkResult recounts a result from the graph's edges: partitions are
// disjoint sets of at least two unpinned inner blocks, each within the
// I/O budget, and partitions plus uncovered blocks are exactly the
// inner blocks.
func checkResult(g *graph.Graph, r *core.Result, c core.Constraints) error {
	seen := map[graph.NodeID]bool{}
	for pi, p := range r.Partitions {
		members := p.Sorted()
		if len(members) < 2 {
			return fmt.Errorf("partition %d has %d member(s)", pi, len(members))
		}
		in := map[graph.Port]bool{}
		out := map[graph.Port]bool{}
		for _, id := range members {
			if g.Role(id) != graph.RoleInner || g.Pinned(id) || seen[id] {
				return fmt.Errorf("partition %d: block %q is not a free inner block", pi, g.Name(id))
			}
			seen[id] = true
		}
		for _, id := range members {
			for _, e := range g.InEdgesView(id) {
				if !p.Has(e.From.Node) {
					in[e.From] = true
				}
			}
			for _, e := range g.OutEdgesView(id) {
				if !p.Has(e.To.Node) {
					out[e.From] = true
				}
			}
		}
		if len(in) > c.MaxInputs || len(out) > c.MaxOutputs {
			return fmt.Errorf("partition %d needs %d inputs, %d outputs (budget %dx%d)", pi, len(in), len(out), c.MaxInputs, c.MaxOutputs)
		}
	}
	for _, id := range r.Uncovered {
		if seen[id] {
			return fmt.Errorf("block %q both covered and uncovered", g.Name(id))
		}
		seen[id] = true
	}
	inner := g.InnerNodes()
	for _, id := range inner {
		if !seen[id] {
			return fmt.Errorf("inner block %q unaccounted for", g.Name(id))
		}
	}
	if len(seen) != len(inner) {
		return fmt.Errorf("result names %d blocks, design has %d inner blocks", len(seen), len(inner))
	}
	return nil
}

// extra reports the partitioning quality of one pass.
func (w *paperPartition) extra() []metric {
	pd, ex, nEx := 0, 0, 0
	for _, o := range w.first {
		pd += o.pdCost
		if o.exCost >= 0 {
			ex += o.exCost
			nEx++
		}
	}
	return []metric{
		{"pd_blocks", float64(pd), "blocks", len(w.first)},
		{"exh_blocks", float64(ex), "blocks", nEx},
		{"wall_throughput_ops_s", median(w.wallRate), "1/s", len(w.wallLat)},
		{"host_factor", median(w.factors), "ratio", len(w.factors)},
	}
}

func (w *paperPartition) layers(tr *tracer, ph phase) map[string]float64 {
	lt := selfTimes(tr.snapshot())
	ops := len(ph.Lat)
	m := map[string]float64{}
	if t := lt["core.paredown"]; t != nil {
		m["core.paredown.busy_ms"] = perOp(t.Self, ops)
	}
	if t := lt["core.exhaustive"]; t != nil {
		m["core.exhaustive.busy_ms"] = perOp(t.Self, ops)
	}
	fit, nodes := 0, int64(0)
	for _, o := range w.first {
		fit += o.fitCheck
		nodes += o.nodes
	}
	m["core.paredown.fit_checks"] = float64(fit)
	m["core.exhaustive.nodes_visited"] = float64(nodes)
	m["randgen.busy_ms"] = ms(w.genTime)
	m["trace.reconcile_err"] = reconcileErr(lt, phase{Lat: w.wallLat}) // spans are wall-clock
	return m
}

func (w *paperPartition) close() {}

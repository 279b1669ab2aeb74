package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/load"
	"repro/internal/netlist"
	"repro/internal/randgen"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// item is one pre-generated request.
type item struct {
	route string // report label: synthesize, batch, simulate, verify, delta
	path  string
	body  []byte
	key   [32]byte // request identity: hash of path and body
}

func newItem(route, path string, body []byte) item {
	return item{route: route, path: path, body: body, key: sha256.Sum256(append([]byte(path+"\n"), body...))}
}

// identity remembers the first response body per request identity, so
// every later response to the same request, from any X-Cache tier, is
// compared with it byte for byte.
type identity struct {
	mu       sync.Mutex
	first    map[[32]byte]identSeen
	compared int
	tierSeen map[string]int
	errs     []string
}

type identSeen struct {
	sum  [32]byte
	tier string
	op   int
}

func newIdentity() *identity {
	return &identity{first: map[[32]byte]identSeen{}, tierSeen: map[string]int{}}
}

// observe records one response; a body differing from the first one
// for the same request is a failure.
func (id *identity) observe(key [32]byte, op int, tier string, body []byte) error {
	sum := sha256.Sum256(body)
	id.mu.Lock()
	defer id.mu.Unlock()
	id.tierSeen[tier]++
	prev, ok := id.first[key]
	if !ok {
		id.first[key] = identSeen{sum: sum, tier: tier, op: op}
		return nil
	}
	id.compared++
	if prev.sum != sum {
		return fmt.Errorf("op %d (X-Cache %q) body differs from op %d (X-Cache %q) for the same request", op, tier, prev.op, prev.tier)
	}
	return nil
}

// serveBench is the state both serve workloads share: the fleet,
// pre-generated items, the HTTP target, the checks and the in-process
// replay.
type serveBench struct {
	fleet
	cfg    *config
	items  []item
	next   int // next item index for a timed phase
	target string
	client *http.Client
	ident  *identity
	// sample marks the items whose replies are kept for the post-run
	// checks; replies holds them.
	sample  map[int]bool
	mu      sync.Mutex
	replies map[int]reply
	// tracedFrom/tracedTo delimit the items of the traced phase.
	tracedFrom, tracedTo int
	ref                  tracerRef
	closers              []func()
	exhausted            bool
	// genTime is the randgen time spent generating the items.
	genTime time.Duration
}

func (b *serveBench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.client.CloseIdleConnections()
}

// fire sends item i and returns whether it succeeded.
func (b *serveBench) fire(ctx context.Context, i int, tr *tracer, parent int) (reply, error) {
	it := b.items[i]
	r, err := post(ctx, b.client, b.target+it.path, it.body, tr, it.route, parent, i)
	if err != nil {
		return r, fmt.Errorf("op %d %s: %w", i, it.route, err)
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("op %d %s: status %d: %.200s", i, it.route, r.status, r.body)
	}
	if err := b.ident.observe(it.key, i, r.tier, r.body); err != nil {
		return r, err
	}
	if b.sample[i] {
		b.mu.Lock()
		b.replies[i] = r
		b.mu.Unlock()
	}
	return r, nil
}

// closedLoop runs `clients` goroutines, each sending its next item as
// soon as the previous reply is complete, for about d.
func (b *serveBench) closedLoop(d time.Duration, tr *tracer) phase {
	ph := phase{Start: time.Now()}
	var mu sync.Mutex
	b.ref.set(tr)
	defer b.ref.set(nil)
	from := b.next
	var next atomic.Int64
	next.Store(int64(from))
	rt := readRuntime()
	start := ph.Start
	stop := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1)) - 1
				if i >= len(b.items) {
					mu.Lock()
					b.exhausted = true
					mu.Unlock()
					return
				}
				t0 := time.Now()
				root := tr.beginAt("op", t0, 0, i)
				_, err := b.fire(context.Background(), i, tr, root)
				lat := time.Since(t0)
				tr.end(root)
				mu.Lock()
				if err != nil {
					ph.fail("%v", err)
				} else {
					ph.ok(lat, time.Now())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.Elapsed = time.Since(start)
	ph.since(rt)
	b.next = min(int(next.Load()), len(b.items))
	b.tracedFrom, b.tracedTo = from, b.next
	return ph
}

// openLoop sends the items from b.next on at `rate` per second for
// about d (see runOpenLoop).
func (b *serveBench) openLoop(d time.Duration, rate float64, tr *tracer) phase {
	b.ref.set(tr)
	defer b.ref.set(nil)
	from := b.next
	ph, sent := runOpenLoop(d, rate, from, len(b.items)-from, tr, func(op, parent int) (time.Duration, error) {
		_, err := b.fire(context.Background(), op, tr, parent)
		return 0, err
	})
	b.exhausted = b.exhausted || sent == len(b.items)-from
	b.next = from + sent
	b.tracedFrom, b.tracedTo = from, b.next
	return ph
}

// runOpenLoop sends op from+k at start + k/rate, whatever the replies
// do, on `clients` connections, for about d or until limit ops were
// sent.
// Latency runs from each op's due time, so a stall also charges the
// ops queued behind it; Lag records how late each send started. send
// returns the time to the reply's first byte, or 0 when that is not
// reported. It returns the phase and the number of ops sent.
func runOpenLoop(d time.Duration, rate float64, from, limit int, tr *tracer, send func(op, parent int) (time.Duration, error)) (phase, int) {
	ph := phase{Start: time.Now()}
	var mu sync.Mutex
	type job struct {
		op  int
		due time.Time
	}
	jobs := make(chan job)
	rt := readRuntime()
	start := ph.Start
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				lag := time.Since(j.due)
				root := tr.beginAt("op", j.due, 0, j.op)
				tr.add("load.queue", j.due, j.due.Add(lag), root, j.op)
				first, err := send(j.op, root)
				lat := time.Since(j.due)
				tr.end(root)
				mu.Lock()
				ph.Lag = append(ph.Lag, lag)
				if err != nil {
					ph.fail("%v", err)
				} else {
					ph.ok(lat, time.Now())
					if first > 0 {
						ph.First = append(ph.First, first)
					}
				}
				mu.Unlock()
			}
		}()
	}
	k := 0
	for ; k < limit; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		jobs <- job{op: from + k, due: due}
	}
	close(jobs)
	wg.Wait()
	ph.Elapsed = time.Since(start)
	ph.since(rt)
	return ph, k
}

// pickSample marks n seeded item indices in [lo, hi) for the checks.
func pickSample(seed int64, lo, hi, n int) map[int]bool {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := map[int]bool{}
	for len(out) < n && len(out) < hi-lo {
		out[lo+rng.Intn(hi-lo)] = true
	}
	return out
}

// verifySample re-simulates sampled synthesized networks against their
// originals (synth.Verify, delta-cycle semantics) and checks the
// response's own block accounting.
func (b *serveBench) verifySample(limit int) []string {
	var errs []string
	idx := make([]int, 0, len(b.replies))
	for i := range b.replies {
		if b.items[i].route == "synthesize" {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	if len(idx) > limit {
		idx = idx[:limit]
	}
	if len(idx) == 0 {
		return []string{"no synthesized network was sampled for verification"}
	}
	for _, i := range idx {
		if err := verifyReply(b.items[i].body, b.replies[i].body, b.cfg.seed); err != nil {
			errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
		}
	}
	return errs
}

// verifyReply checks one synthesize reply against its request.
func verifyReply(reqBody, respBody []byte, seed int64) error {
	var req struct {
		Design json.RawMessage `json:"design"`
	}
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	var resp service.Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	orig, err := netlist.UnmarshalJSON(req.Design, block.Standard())
	if err != nil {
		return fmt.Errorf("original: %w", err)
	}
	syn, err := netlist.UnmarshalJSON(resp.Synthesized, block.Standard())
	if err != nil {
		return fmt.Errorf("synthesized: %w", err)
	}
	inner := len(orig.Graph().InnerNodes())
	if resp.InnerBefore != inner || resp.InnerAfter > inner || len(syn.Graph().InnerNodes()) != resp.InnerAfter {
		return fmt.Errorf("block accounting: before %d (design has %d), after %d (network has %d)",
			resp.InnerBefore, inner, resp.InnerAfter, len(syn.Graph().InnerNodes()))
	}
	mm, err := synth.Verify(orig, syn, synth.VerifyOptions{Steps: 40, Seed: seed})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if len(mm) > 0 {
		return fmt.Errorf("synthesized network differs from the original: %v", mm[0])
	}
	return nil
}

// ---- serve-cold ----

// coldRate bounds how many cold items a run pre-generates per measured
// second (above the closed loop's throughput on a 2-core host).
const coldRate = 400

// coldWarmup is how many cold items set-up sends before the timed
// phase.
const coldWarmup = 200

type serveCold struct {
	serveBench
}

// table2Pick draws an inner-block count from the Table 2 size mix.
func table2Pick(rng *rand.Rand) int {
	total := 0
	for _, n := range table2Counts {
		total += n
	}
	sizes := make([]int, 0, len(table2Counts))
	for s := range table2Counts {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	x := rng.Intn(total)
	for _, s := range sizes {
		if x < table2Counts[s] {
			return s
		}
		x -= table2Counts[s]
	}
	return sizes[len(sizes)-1]
}

// coldItems generates n never-repeating random-design synthesis
// requests from the seed; it returns them with the randgen time.
func coldItems(seed int64, n int) ([]item, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	items := make([]item, n)
	var gen time.Duration
	for i := range items {
		size := table2Pick(rng)
		t0 := time.Now()
		d, err := randgen.Generate(randgen.Params{InnerBlocks: size, Seed: seed<<24 + int64(i)})
		gen += time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		raw, err := netlist.MarshalJSON(d)
		if err != nil {
			return nil, 0, err
		}
		body, err := json.Marshal(map[string]json.RawMessage{"design": raw})
		if err != nil {
			return nil, 0, err
		}
		items[i] = newItem("synthesize", "/v1/synthesize", body)
	}
	return items, gen, nil
}

// newServeCold starts a fleet of two workers, pre-generates the
// requests and warms the fleet up.
func newServeCold(cfg *config) (workload, error) {
	w := &serveCold{}
	w.cfg, w.client, w.ident, w.replies = cfg, newClient(), newIdentity(), map[int]reply{}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	if err := w.startFleet(2); err != nil {
		return nil, err
	}

	warm := scaled(coldWarmup, cfg.scale)
	n := warm + int(cfg.seconds*coldRate*cfg.scale) + 64
	var err error
	if w.items, w.genTime, err = coldItems(cfg.seed, n); err != nil {
		return nil, err
	}
	w.sample = pickSample(cfg.seed, warm, min(n, warm+200), 12)
	// Warm-up: the first items grow the heaps and the stores' directory
	// trees, which would otherwise slow the first seconds of the timed
	// phase. They are never-seen designs like the rest.
	if ph := w.closedLoopN(warm); ph.Failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed: %v", ph.Failed, ph.Errs)
	}
	ok = true
	return w, nil
}

func (w *serveCold) measure(d time.Duration, tr *tracer) phase { return w.closedLoop(d, tr) }

// check re-requests the sampled items from every tier — the owner's
// memory, the other worker (remote origin) and a fresh service over
// the owner's disk — and compares the bodies with the cold replies;
// then verifies the sampled networks.
func (w *serveCold) check() []string {
	errs := append([]string(nil), w.ident.errs...)
	for _, st := range w.stores {
		st.Flush()
	}
	var diskSrv []*server
	for _, dir := range w.dirs {
		st, err := store.Open(dir, store.Options{MemBytes: -1})
		if err != nil {
			return append(errs, fmt.Sprintf("reopening %s: %v", dir, err))
		}
		defer st.Close()
		srv, err := serve(service.New(service.Config{Store: st}).Handler())
		if err != nil {
			return append(errs, err.Error())
		}
		defer srv.close()
		diskSrv = append(diskSrv, srv)
	}
	// The re-requested items are the most recent ones, which the owner
	// still holds locally (memory or disk, depending on eviction).
	lo := max(0, w.next-100)
	for i := range pickSample(w.cfg.seed+1, lo, w.next, 8) {
		it := w.items[i]
		owner := 0
		if router.Owner(routingKey(it), []string{w.srvs[0].url[7:], w.srvs[1].url[7:]}) == w.srvs[1].url[7:] {
			owner = 1
		}
		for _, t := range []struct{ url, tier string }{
			{w.target, "local"},
			{w.srvs[1-owner].url, "remote"},
			{diskSrv[owner].url, "disk"},
		} {
			r, err := post(context.Background(), w.client, t.url+it.path, it.body, nil, it.route, 0, i)
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("op %d re-request (%s): %v", i, t.tier, err))
			case r.status != http.StatusOK:
				errs = append(errs, fmt.Sprintf("op %d re-request (%s): status %d", i, t.tier, r.status))
			case r.tier != t.tier && !(t.tier == "local" && (r.tier == "memory" || r.tier == "disk")):
				errs = append(errs, fmt.Sprintf("op %d re-request: X-Cache %q, want %q", i, r.tier, t.tier))
			default:
				if err := w.ident.observe(it.key, i, r.tier, r.body); err != nil {
					errs = append(errs, err.Error())
				}
			}
		}
	}
	errs = append(errs, w.verifySample(6)...)
	return errs
}

// routingKey is the router's key for an item (the design fingerprint).
func routingKey(it item) string {
	k, err := service.RoutingKey(it.path, it.body)
	if err != nil {
		return ""
	}
	return k
}

func (w *serveCold) extra() []metric {
	return []metric{{"items_exhausted", b2f(w.exhausted), "bool", 1}}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---- serve-steady ----

// steadyRate is serve-steady's arrival rate in requests per second.
// One bare worker driven closed-loop by two clients served 800-860
// requests/s on a quiet 2-core host, about half that when the shared
// host was busy, and less in its busiest spells, when at 200/s the
// open loop queued and its p50 doubled. 120/s keeps the worker mostly
// idle even then; behind the router with a remote origin each request
// costs about 1.7 times the CPU.
const steadyRate = 120

// steadyWarmup is how many items set-up sends before the timed phase.
const steadyWarmup = 400

type serveSteady struct {
	serveBench
	rate float64
}

// newServeSteady starts the fleet shape with one worker (the router in
// front of a worker whose disk store has a remote origin, all with
// eblocksd's defaults), so the router and the remote tier are measured
// on a gated workload; pre-generates the steady mix; and warms the
// caches with the first items.
func newServeSteady(cfg *config) (workload, error) {
	w := &serveSteady{rate: steadyRate}
	w.cfg, w.client, w.ident, w.replies = cfg, newClient(), newIdentity(), map[int]reply{}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	warm := scaled(steadyWarmup, cfg.scale)
	n := warm + int(cfg.seconds*w.rate*1.05) + 16
	items, err := steadyItems(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	w.items = items
	if err := w.startFleet(1); err != nil {
		return nil, err
	}
	w.sample = pickSample(cfg.seed, warm, n, 24)
	if ph := w.closedLoopN(warm); ph.Failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed: %v", ph.Failed, ph.Errs)
	}
	ok = true
	return w, nil
}

// steadyItems generates the first n items of the CI steady mix.
func steadyItems(seed int64, n int) ([]item, error) {
	gen, err := load.NewGen(load.MixSteady, seed)
	if err != nil {
		return nil, err
	}
	items := make([]item, n)
	for i := range items {
		it := gen.Item(i)
		items[i] = newItem(filepath.Base(it.Route), it.Path, it.Body)
	}
	return items, nil
}

// closedLoopN sends the next n items closed-loop (warm-up).
func (w *serveBench) closedLoopN(n int) phase {
	items := w.items
	w.items = items[:w.next+n]
	ph := w.closedLoop(time.Hour, nil)
	w.items = items
	w.exhausted = false
	return ph
}

func (w *serveSteady) measure(d time.Duration, tr *tracer) phase {
	return w.openLoop(d, w.rate, tr)
}

func (w *serveSteady) check() []string {
	errs := append([]string(nil), w.ident.errs...)
	if w.ident.compared == 0 {
		errs = append(errs, "no request repeated, so no cross-tier comparison ran")
	}
	return append(errs, w.verifySample(8)...)
}

func (w *serveSteady) extra() []metric {
	w.ident.mu.Lock()
	defer w.ident.mu.Unlock()
	return []metric{
		{"identity_compared", float64(w.ident.compared), "count", 1},
		{"items_exhausted", b2f(w.exhausted), "bool", 1},
	}
}

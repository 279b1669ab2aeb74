package load

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGenDeterminism is the property behind replayable load runs: for
// every mix, Item(i) is a pure function of (mix, seed, i) —
// byte-identical across generator instances and access orders — and
// every item is a well-formed POST body on a /v1 route.
func TestGenDeterminism(t *testing.T) {
	const n = 64
	for _, mix := range Mixes() {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			t.Parallel()
			a, err := NewGen(mix, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewGen(mix, 7)
			if err != nil {
				t.Fatal(err)
			}
			items := make([]Item, n)
			for i := 0; i < n; i++ {
				items[i] = a.Item(i)
			}
			// Second instance, reverse order: same items.
			for i := n - 1; i >= 0; i-- {
				got := b.Item(i)
				if got.Index != i {
					t.Fatalf("Item(%d).Index = %d", i, got.Index)
				}
				if got.Route != items[i].Route || got.Path != items[i].Path || !bytes.Equal(got.Body, items[i].Body) {
					t.Fatalf("Item(%d) differs across instances/orders", i)
				}
				if !strings.HasPrefix(got.Path, "/v1/") {
					t.Fatalf("Item(%d).Path = %q, want /v1/*", i, got.Path)
				}
				if !json.Valid(got.Body) {
					t.Fatalf("Item(%d) body is not valid JSON", i)
				}
			}
			// Re-reading an index on the same instance is stable too
			// (no internal stream state to corrupt).
			if got := a.Item(3); !bytes.Equal(got.Body, items[3].Body) {
				t.Error("re-reading Item(3) changed its body")
			}
		})
	}
}

// TestGenSeedMatters guards against the seed being silently ignored:
// two seeds must not replay the same request sequence.
func TestGenSeedMatters(t *testing.T) {
	a, err := NewGen(MixSteady, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGen(MixSteady, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ia, ib := a.Item(i), b.Item(i)
		if ia.Path != ib.Path || !bytes.Equal(ia.Body, ib.Body) {
			return
		}
	}
	t.Error("64 items identical across different seeds")
}

// TestGenUniqueNeverRepeats spot-checks the cache-busting mix: every
// item must be a distinct design (a repeat would silently turn cold
// traffic into warm traffic and flatter the benchmark).
func TestGenUniqueNeverRepeats(t *testing.T) {
	g, err := NewGen(MixUnique, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]int{}
	for i := 0; i < 128; i++ {
		h := sha256.Sum256(g.Item(i).Body)
		if j, dup := seen[h]; dup {
			t.Fatalf("unique mix repeated a body at %d and %d", j, i)
		}
		seen[h] = i
	}
}

// TestRunWorkerInvariance runs the same generator at different worker
// counts against a recording server: the multiset of delivered request
// bodies and the per-route counts must be identical — concurrency may
// only change interleaving, never the workload.
func TestRunWorkerInvariance(t *testing.T) {
	const requests = 48
	run := func(workers int) (map[[32]byte]int, map[string]int) {
		var mu sync.Mutex
		bodies := map[[32]byte]int{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			bodies[sha256.Sum256(b)]++
			mu.Unlock()
			w.Header().Set("X-Cache", "memory")
			w.Write([]byte("{}"))
		}))
		defer ts.Close()

		g, err := NewGen(MixSteady, 11)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), g, Options{
			Targets:  []string{ts.URL},
			Requests: requests,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != requests || rep.Workers != workers {
			t.Fatalf("report echoes requests=%d workers=%d", rep.Requests, rep.Workers)
		}
		counts := map[string]int{}
		for _, rs := range rep.Routes {
			counts[rs.Route] = rs.Count
			if rs.OK != rs.Count || rs.Errors != 0 || rs.Shed != 0 {
				t.Errorf("%s: ok=%d shed=%d err=%d of %d against an all-200 server",
					rs.Route, rs.OK, rs.Shed, rs.Errors, rs.Count)
			}
			for _, tier := range rs.Tiers {
				if tier.Tier != "memory" {
					t.Errorf("%s: tier %q, want memory", rs.Route, tier.Tier)
				}
			}
		}
		return bodies, counts
	}

	bodies1, counts1 := run(1)
	bodies7, counts7 := run(7)
	if len(bodies1) != len(bodies7) {
		t.Fatalf("distinct bodies differ: %d vs %d", len(bodies1), len(bodies7))
	}
	for h, n := range bodies1 {
		if bodies7[h] != n {
			t.Fatal("request-body multiset differs between worker counts")
		}
	}
	for route, n := range counts1 {
		if counts7[route] != n {
			t.Errorf("%s: count %d at 1 worker vs %d at 7", route, n, counts7[route])
		}
	}
}

// TestRunValidation covers the setup error paths.
func TestRunValidation(t *testing.T) {
	g, err := NewGen(MixLibrary, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g, Options{Requests: 1}); err == nil {
		t.Error("Run without targets should fail")
	}
	if _, err := Run(context.Background(), g, Options{Targets: []string{"http://x"}, Requests: 0}); err == nil {
		t.Error("Run without requests should fail")
	}
	if _, err := NewGen("nope", 1); err == nil {
		t.Error("NewGen with unknown mix should fail")
	}
}

// TestReportQuantilesAndSLO drives the recorder with known samples and
// checks the nearest-rank quantiles, status classification, and every
// SLO ceiling.
func TestReportQuantilesAndSLO(t *testing.T) {
	rec := newRecorder()
	// 100 OK samples of 1ms..100ms on one route/tier.
	for i := 1; i <= 100; i++ {
		rec.observe("/v1/synthesize", 200, "memory", time.Duration(i)*time.Millisecond)
	}
	// A shed, a server error, and a transport failure on another route.
	rec.observe("/v1/simulate", 429, "", 1*time.Millisecond)
	rec.observe("/v1/simulate", 500, "", 2*time.Millisecond)
	rec.observe("/v1/simulate", 0, "", 3*time.Millisecond)
	rec.observe("/v1/simulate", 200, "miss", 4*time.Millisecond)

	rep := &Report{Routes: rec.report()}
	if len(rep.Routes) != 2 {
		t.Fatalf("got %d routes", len(rep.Routes))
	}
	sim, syn := rep.Routes[0], rep.Routes[1]
	if syn.Route != "/v1/synthesize" || sim.Route != "/v1/simulate" {
		t.Fatalf("routes not sorted: %s, %s", sim.Route, syn.Route)
	}

	// Nearest-rank over 1..100ms: p50 = 50th sample, p99 = 99th.
	if syn.P50 != 50*time.Millisecond || syn.P90 != 90*time.Millisecond ||
		syn.P99 != 99*time.Millisecond || syn.Max != 100*time.Millisecond {
		t.Errorf("quantiles = %v/%v/%v/%v", syn.P50, syn.P90, syn.P99, syn.Max)
	}
	if q := quantilesOf(nil); q != (Quantiles{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
	if syn.OK != 100 || syn.ErrorRate() != 0 {
		t.Errorf("synthesize ok=%d errRate=%v", syn.OK, syn.ErrorRate())
	}

	if sim.Count != 4 || sim.OK != 1 || sim.Shed != 1 || sim.Errors != 2 {
		t.Errorf("simulate classification: %+v", sim)
	}
	if sim.Statuses["transport"] != 1 || sim.Statuses["500"] != 1 || sim.Statuses["429"] != 1 {
		t.Errorf("simulate statuses: %v", sim.Statuses)
	}
	if got := sim.ErrorRate(); got != 0.5 {
		t.Errorf("simulate error rate = %v, want 0.5 (429 is not an error)", got)
	}

	// SLO ceilings: each knob trips on exactly the route that breaches it.
	if v := rep.Check(SLO{}); len(v) != 0 {
		t.Errorf("empty SLO produced violations: %v", v)
	}
	if v := rep.Check(SLO{MaxP99: 10 * time.Millisecond}); len(v) != 1 || !strings.Contains(v[0], "/v1/synthesize") {
		t.Errorf("p99 ceiling: %v", v)
	}
	if v := rep.Check(SLO{CheckErrors: true}); len(v) != 1 || !strings.Contains(v[0], "/v1/simulate") {
		t.Errorf("zero-error ceiling: %v", v)
	}
	if v := rep.Check(SLO{CheckErrors: true, MaxErrorRate: 0.5}); len(v) != 0 {
		t.Errorf("error rate exactly at ceiling should pass: %v", v)
	}
	if v := rep.Check(SLO{CheckSheds: true}); len(v) != 1 || !strings.Contains(v[0], "/v1/simulate") {
		t.Errorf("zero-shed ceiling: %v", v)
	}

	// The report round-trips through its JSON form.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Routes) != 2 || back.Routes[1].P99 != syn.P99 {
		t.Error("report did not survive the JSON round trip")
	}
	rep.WriteSummary(io.Discard)
}

// TestNearestRank pins the quantile definition shared with the
// service: over n samples 1..n, given in descending order, the
// reported q-quantile is sample i+1, i = ceil(q*n)-1 clamped to
// [0, n-1]. The caller's samples are left in their order.
func TestNearestRank(t *testing.T) {
	cases := []struct {
		q    float64
		n, i int
	}{
		{0.50, 1, 0}, {0.99, 1, 0}, {0.50, 2, 0}, {0.50, 100, 49},
		{0.90, 100, 89}, {0.99, 100, 98}, {0.99, 10, 9}, {0.50, 3, 1},
	}
	for _, c := range cases {
		var samples []time.Duration
		for k := c.n; k >= 1; k-- {
			samples = append(samples, time.Duration(k))
		}
		q := quantilesOf(samples)
		got := map[float64]time.Duration{0.50: q.P50, 0.90: q.P90, 0.99: q.P99}[c.q]
		if want := time.Duration(c.i + 1); got != want {
			t.Errorf("q=%v over %d samples = %v, want %v", c.q, c.n, got, want)
		}
		if q.Max != time.Duration(c.n) {
			t.Errorf("max over %d samples = %v", c.n, q.Max)
		}
		if samples[0] != time.Duration(c.n) {
			t.Errorf("quantilesOf reordered its input: %v", samples)
		}
	}
	if q := quantilesOf(nil); q != (Quantiles{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
}

// TestShardBreakdown: responses labeled X-Shard / X-Retried-Shard
// (a router-fronted run) produce the per-shard report section —
// service counts, error splits, absorbed retries charged to the
// serving shard and caused retries to the one that failed first —
// and a bare-worker run (no labels) produces none.
func TestShardBreakdown(t *testing.T) {
	rec := newRecorder()
	rec.observeShard("a:1", "", 200)
	rec.observeShard("a:1", "", 200)
	rec.observeShard("a:1", "", 502)
	rec.observeShard("b:2", "a:1", 200) // b absorbed a retry a caused
	rec.observeShard("b:2", "", 200)

	shards := rec.shardReport()
	if len(shards) != 2 || shards[0].Shard != "a:1" || shards[1].Shard != "b:2" {
		t.Fatalf("shard report = %+v", shards)
	}
	a, b := shards[0], shards[1]
	if a.Count != 3 || a.OK != 2 || a.Errors != 1 || a.Absorbed != 0 || a.CausedRetries != 1 {
		t.Errorf("shard a ledger: %+v", a)
	}
	if b.Count != 2 || b.OK != 2 || b.Errors != 0 || b.Absorbed != 1 || b.CausedRetries != 0 {
		t.Errorf("shard b ledger: %+v", b)
	}

	rep := &Report{Shards: shards}
	var buf bytes.Buffer
	rep.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "shard a:1") || !strings.Contains(buf.String(), "causedRetries=1") {
		t.Errorf("summary missing shard lines:\n%s", buf.String())
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Shards) != 2 || back.Shards[1].Absorbed != 1 {
		t.Errorf("shard section did not survive the JSON round trip: %+v", back.Shards)
	}

	// A run against a bare worker (no X-Shard) reports no shard
	// section at all (omitempty keeps BENCH_load.json unchanged).
	if got := newRecorder().shardReport(); len(got) != 0 {
		t.Errorf("empty recorder produced shards: %+v", got)
	}
}

// TestRunCapturesShardHeaders: Run end to end against a target that
// labels responses with X-Shard propagates the labels into the
// report's shard section.
func TestRunCapturesShardHeaders(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Shard", "w1:8080")
		if r.URL.Path == "/v1/delta" {
			w.Header().Set("X-Retried-Shard", "w2:8080")
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	gen, err := NewGen(MixDelta, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), gen, Options{Targets: []string{ts.URL}, Requests: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("shard section = %+v, want w1 and w2", rep.Shards)
	}
	w1, w2 := rep.Shards[0], rep.Shards[1]
	if w1.Shard != "w1:8080" || w1.Count != 6 || w1.Absorbed != 6 {
		t.Errorf("w1 ledger: %+v", w1)
	}
	if w2.Shard != "w2:8080" || w2.CausedRetries != 6 || w2.Count != 0 {
		t.Errorf("w2 ledger: %+v", w2)
	}
}

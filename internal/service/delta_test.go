package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/randgen"
	"repro/internal/store"
	"repro/internal/synth"
)

// paramTweak builds a one-block parameter edit against d: the
// canonical interactive mutation, touching exactly one partition's
// subgraph fingerprint. delta selects the new value so callers can
// issue distinct edits against the same base.
func paramTweak(t *testing.T, d *netlist.Design, delta int64) []synth.Edit {
	t.Helper()
	g := d.Graph()
	for _, id := range d.InnerBlocks() {
		p := d.Program(id)
		if p == nil || len(p.Params) == 0 {
			continue
		}
		v := p.Params[0].Init
		if cur, ok := d.Param(id, p.Params[0].Name); ok {
			v = cur
		}
		return []synth.Edit{{Op: "set-param", Block: g.Name(id), Param: p.Params[0].Name, Value: v + delta}}
	}
	// No parameterized block: fall back to a (value-preserving) program
	// override, still a single-block, non-structural edit.
	for _, id := range d.InnerBlocks() {
		if p := d.Program(id); p != nil {
			return []synth.Edit{{Op: "set-program", Block: g.Name(id), Program: behavior.Format(p)}}
		}
	}
	t.Fatalf("design %q has no editable block", d.Name)
	return nil
}

// parseIncremental decodes the X-Incremental header value
// ("adopted=<n> recomputed=<m>").
func parseIncremental(t *testing.T, h string) (adopted, recomputed int) {
	t.Helper()
	if _, err := fmt.Sscanf(h, "adopted=%d recomputed=%d", &adopted, &recomputed); err != nil {
		t.Fatalf("bad X-Incremental header %q: %v", h, err)
	}
	return adopted, recomputed
}

// TestDeltaHTTPIncremental is the interactive workload end to end over
// HTTP: synthesize a base design cold, then apply one-block edits via
// /v1/delta — against a warm store, against the persisted edited
// design by content address, and against a fresh process on the same
// store dir. Each response must be byte-identical to what a cold
// /v1/synthesize of the edited design produces.
func TestDeltaHTTPIncremental(t *testing.T) {
	dir := t.TempDir()
	base := designs.Lookup("Timed Passage").Build()
	baseJSON, err := netlist.MarshalJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	edits := paramTweak(t, base, 1)

	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1})
	ts1 := httptest.NewServer(svc1.Handler())

	// Warm the store: a cold full synthesis of the base persists the
	// partitioning and every partition's merge artifact.
	if resp, body := postJSON(t, ts1.URL+"/v1/synthesize", JSONRequest{Design: baseJSON}); resp.StatusCode != http.StatusOK {
		t.Fatalf("base synthesis: status %d: %s", resp.StatusCode, body)
	}

	// One-block edit against the warm store: only the edited partition
	// recomputes.
	httpResp, deltaBody := postJSON(t, ts1.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON, Edits: edits})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", httpResp.StatusCode, deltaBody)
	}
	if got := httpResp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first delta X-Cache = %q, want miss", got)
	}
	adopted, recomputed := parseIncremental(t, httpResp.Header.Get("X-Incremental"))
	if adopted == 0 || recomputed == 0 {
		t.Errorf("first delta adopted=%d recomputed=%d, want both > 0 (one-block edit over a warm store)", adopted, recomputed)
	}
	editedFP := httpResp.Header.Get("X-Design-Fingerprint")
	if editedFP == "" {
		t.Fatal("delta response has no X-Design-Fingerprint")
	}

	// Equivalence: a cold, memory-only /v1/synthesize of the edited
	// design must produce the identical body.
	edited, err := synth.ApplyEdits(base, edits)
	if err != nil {
		t.Fatal(err)
	}
	editedJSON, err := netlist.MarshalJSON(edited)
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(New(Config{}).Handler())
	defer tsRef.Close()
	if _, refBody := postJSON(t, tsRef.URL+"/v1/synthesize", JSONRequest{Design: editedJSON}); !bytes.Equal(deltaBody, refBody) {
		t.Error("delta response is not byte-identical to a cold synthesis of the edited design")
	}

	// The same edit again is a response-cache hit.
	if resp, _ := postJSON(t, ts1.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON, Edits: edits}); resp.Header.Get("X-Cache") != "memory" {
		t.Errorf("repeated delta X-Cache = %q, want memory", resp.Header.Get("X-Cache"))
	}

	// Chain the next edit by content address: the edited design was
	// persisted, so the client never re-uploads.
	chain := DeltaJSONRequest{BaseFingerprint: editedFP, Edits: paramTweak(t, edited, 2)}
	httpResp, body := postJSON(t, ts1.URL+"/v1/delta", chain)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("chained delta: status %d: %s", httpResp.StatusCode, body)
	}
	if adopted, _ := parseIncremental(t, httpResp.Header.Get("X-Incremental")); adopted == 0 {
		t.Error("chained delta adopted nothing from the warm store")
	}

	if st := svc1.Stats(); st.DeltaRequests != 3 || st.PartitionsAdopted == 0 {
		t.Errorf("stats deltaRequests=%d partitionsAdopted=%d, want 3 and > 0", st.DeltaRequests, st.PartitionsAdopted)
	}

	ts1.Close()
	st1.Close()

	// Restart: a fresh process on the same store dir serves the
	// repeated edit from disk and adopts persisted partition artifacts
	// for a new one.
	st2 := openStore(t, dir)
	defer st2.Close()
	svc2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	httpResp, restartBody := postJSON(t, ts2.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON, Edits: edits})
	if got := httpResp.Header.Get("X-Cache"); got != "disk" {
		t.Errorf("post-restart repeated delta X-Cache = %q, want disk", got)
	}
	if !bytes.Equal(restartBody, deltaBody) {
		t.Error("post-restart delta body differs from the original")
	}
	httpResp, body = postJSON(t, ts2.URL+"/v1/delta", DeltaJSONRequest{BaseFingerprint: editedFP, Edits: paramTweak(t, edited, 3)})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart new delta: status %d: %s", httpResp.StatusCode, body)
	}
	if httpResp.Header.Get("X-Cache") != "miss" {
		t.Errorf("post-restart new delta X-Cache = %q, want miss", httpResp.Header.Get("X-Cache"))
	}
	if adopted, _ := parseIncremental(t, httpResp.Header.Get("X-Incremental")); adopted == 0 {
		t.Error("post-restart delta adopted nothing from the persisted store")
	}
}

// TestDeltaCachedFingerprintResolves: a delta answered from the
// response cache — the edited design was synthesized directly, never
// through delta — still persists the edited design, so the fingerprint
// it returns resolves and chains the next edit as baseFingerprint.
func TestDeltaCachedFingerprintResolves(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	svc := New(Config{Store: st})
	ctx := context.Background()
	base := designs.Lookup("Podium Timer 3").Build()

	edits := paramTweak(t, base, 1)
	edited, err := synth.ApplyEdits(base, edits)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Synthesize(ctx, Request{Design: edited}); err != nil {
		t.Fatal(err)
	}
	resp, _, src, err := svc.Delta(ctx, Request{Design: base}, edits)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceMemory {
		t.Errorf("delta of a synthesized design: source %v, want memory", src)
	}
	if _, err := svc.DesignByFingerprint(resp.DesignHash); err != nil {
		t.Errorf("cached delta's design fingerprint does not resolve: %v", err)
	}

	// The same over HTTP, with a second edit: the X-Design-Fingerprint
	// of a cached answer is a valid baseFingerprint.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	baseJSON, err := netlist.MarshalJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	edits = paramTweak(t, base, 2)
	if edited, err = synth.ApplyEdits(base, edits); err != nil {
		t.Fatal(err)
	}
	editedJSON, err := netlist.MarshalJSON(edited)
	if err != nil {
		t.Fatal(err)
	}
	if httpResp, body := postJSON(t, ts.URL+"/v1/synthesize", JSONRequest{Design: editedJSON}); httpResp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d: %s", httpResp.StatusCode, body)
	}
	httpResp, body := postJSON(t, ts.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON, Edits: edits})
	if httpResp.StatusCode != http.StatusOK || httpResp.Header.Get("X-Cache") != "memory" {
		t.Fatalf("delta: status %d X-Cache %q, want 200 memory: %s", httpResp.StatusCode, httpResp.Header.Get("X-Cache"), body)
	}
	chain := DeltaJSONRequest{BaseFingerprint: httpResp.Header.Get("X-Design-Fingerprint"), Edits: paramTweak(t, edited, 3)}
	if httpResp, body := postJSON(t, ts.URL+"/v1/delta", chain); httpResp.StatusCode != http.StatusOK {
		t.Errorf("delta by a cached answer's fingerprint: status %d, want 200: %s", httpResp.StatusCode, body)
	}
}

// gateBackend is a remote tier that holds every Get until release is
// closed and then misses: it parks a flight's winner at its first
// store lookup, so the test decides when the flight completes.
type gateBackend struct{ release chan struct{} }

func (g gateBackend) Get(store.Key) ([]byte, bool) {
	<-g.release
	return nil, false
}
func (g gateBackend) PutRaw(string, []byte) error   { return nil }
func (g gateBackend) Stats() (s store.BackendStats) { return s }
func (g gateBackend) Close() error                  { return nil }

// waitingCtx signals once when a caller first asks for its Done
// channel: every caller of a flight, its winner included, does so as
// the flight counts it in.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan<- struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.waiting <- struct{}{} })
	return c.Context.Done()
}

// TestDeltaCoalesces sends identical concurrent deltas to a cold,
// disk-backed service: exactly one pipeline run happens, the rest
// coalesce onto its flight and report its tier and split, and every
// response is byte-identical.
func TestDeltaCoalesces(t *testing.T) {
	gate := gateBackend{release: make(chan struct{})}
	st, err := store.Open(t.TempDir(), store.Options{Remote: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(Config{Store: st})
	edits := paramTweak(t, designs.Lookup("Timed Passage").Build(), 1)

	const n = 8
	waiting := make(chan struct{}, n)
	raws := make([][]byte, n)
	srcs := make([]Source, n)
	stats := make([]synth.DeltaStats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := &waitingCtx{Context: context.Background(), waiting: waiting}
			resp, ds, src, err := svc.Delta(ctx, Request{Design: designs.Lookup("Timed Passage").Build()}, edits)
			if err != nil {
				t.Errorf("delta %d: %v", i, err)
				return
			}
			raws[i], _ = json.Marshal(resp)
			srcs[i], stats[i] = src, ds
		}(i)
	}
	// Hold the winner at its first store lookup until every delta is
	// counted in on its flight.
	deadline := time.After(10 * time.Second)
wait:
	for joined := 0; joined < n; joined++ {
		select {
		case <-waiting:
		case <-deadline:
			t.Errorf("%d of %d deltas joined the flight", joined, n)
			break wait
		}
	}
	close(gate.release)
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(raws[i], raws[0]) {
			t.Errorf("delta %d response differs from delta 0", i)
		}
	}
	for i := range srcs {
		if srcs[i] != SourceMiss || stats[i] != stats[0] {
			t.Errorf("delta %d: source %v split %+v, want the flight's miss %+v", i, srcs[i], stats[i], stats[0])
		}
	}
	if ss := svc.Stats(); ss.CacheMisses != 1 || ss.Coalesced != n-1 || ss.DeltaRequests != n {
		t.Errorf("misses=%d coalesced=%d deltaRequests=%d, want 1, %d, %d", ss.CacheMisses, ss.Coalesced, ss.DeltaRequests, n-1, n)
	}
}

// TestDeltaHTTPErrors pins the error surface: no edits is a 400, an
// unknown base fingerprint is a 404, fingerprint plus inline design is
// a 400.
func TestDeltaHTTPErrors(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	ts := httptest.NewServer(New(Config{Store: st}).Handler())
	defer ts.Close()
	baseJSON := designJSON(t, "Podium Timer 3")
	edit := []synth.Edit{{Op: "set-param", Block: "nope", Param: "p", Value: 1}}

	if resp, body := postJSON(t, ts.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no edits: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/delta", DeltaJSONRequest{BaseFingerprint: "feedfeed", Edits: edit}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/delta", DeltaJSONRequest{BaseFingerprint: "feedfeed", Design: baseJSON, Edits: edit}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fingerprint plus inline design: status %d: %s", resp.StatusCode, body)
	}
	// An edit against a block the design does not have is a 422 (the
	// request was well-formed; the edit list is not applicable).
	if resp, body := postJSON(t, ts.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON, Edits: edit}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad edit target: status %d: %s", resp.StatusCode, body)
	}
}

// TestInfeasibleNegativeCache runs a paper-mode job whose partitioning
// is unrealizable (contracted graph cyclic). The failed run stores its
// partitioned artifact and nothing else, and that artifact answers
// every identical request — synthesis and delta, before and after a
// restart: each repeat fails from the stored partitioning (one lookup
// misses the response, one hits the partitioned artifact) without
// writing to the store. Over HTTP every failure is the same 422 body.
func TestInfeasibleNegativeCache(t *testing.T) {
	// randgen(8, seed 3) under paredown + paper mode contracts to a
	// cyclic block graph.
	build := func() Request {
		return Request{Design: randgen.MustGenerate(randgen.Params{InnerBlocks: 8, Seed: 3}), PaperMode: true}
	}
	ctx := context.Background()
	// fails runs one request that must fail with ErrUnrealizable.
	fails := func(what string, run func() error) {
		t.Helper()
		if err := run(); !errors.Is(err, synth.ErrUnrealizable) {
			t.Fatalf("%s: %v, want ErrUnrealizable", what, err)
		}
	}
	// onlyPartitioned checks the first failure stored the partitioned
	// artifact and nothing else, so any later hit is that artifact.
	onlyPartitioned := func(what string, st *store.Store) {
		t.Helper()
		stages := st.Stats().Stages
		if len(stages) != 1 || stages[synth.StagePartitioned].Entries != 1 {
			t.Errorf("%s stored %v, want one %s entry only", what, stages, synth.StagePartitioned)
		}
	}
	// repeat runs an identical request and checks it failed from the
	// stored partitioning, served by the given tier.
	repeat := func(what string, st *store.Store, tier func(store.Stats) uint64, run func() error) {
		t.Helper()
		before := st.Stats()
		fails(what, run)
		after := st.Stats()
		if n := after.Puts - before.Puts; n != 0 {
			t.Errorf("%s wrote %d store entries, want 0", what, n)
		}
		if n := after.Misses - before.Misses; n != 1 {
			t.Errorf("%s missed %d lookups, want 1 (the response)", what, n)
		}
		if n := tier(after) - tier(before); n != 1 {
			t.Errorf("%s hit the expected tier %d times, want 1 (the partitioned artifact)", what, n)
		}
	}
	memory := func(st store.Stats) uint64 { return st.MemoryHits }
	disk := func(st store.Stats) uint64 { return st.DiskHits }
	synthesize := func(svc *Service) func() error {
		return func() error { _, _, err := svc.Synthesize(ctx, build()); return err }
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1})
	fails("first synthesis", synthesize(svc1))
	onlyPartitioned("first synthesis", st1)
	repeat("second synthesis", st1, memory, synthesize(svc1))
	st1.Close()

	// The delta path fails the same way: against a fresh store, the
	// first delta runs the pipeline (a non-structural edit carries the
	// cyclic partitioning over), the second fails from its artifact.
	stD := openStore(t, t.TempDir())
	defer stD.Close()
	svcD := New(Config{Store: stD})
	edits := paramTweak(t, build().Design, 1)
	delta := func() error { _, _, _, err := svcD.Delta(ctx, build(), edits); return err }
	fails("first delta", delta)
	onlyPartitioned("first delta", stD)
	repeat("second delta", stD, memory, delta)

	// The artifact is persisted: a fresh process fails from disk.
	st2 := openStore(t, dir)
	defer st2.Close()
	repeat("post-restart synthesis", st2, disk, synthesize(New(Config{Store: st2})))

	// Over HTTP the first and the repeated failure carry one body.
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	raw, err := netlist.MarshalJSON(build().Design)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"error":"synth: partitioning is not realizable as an acyclic network (re-run without PaperMode)"}` + "\n"
	for _, what := range []string{"first", "repeated"} {
		resp, body := postJSON(t, ts.URL+"/v1/synthesize", JSONRequest{Design: raw, PaperMode: true})
		if resp.StatusCode != http.StatusUnprocessableEntity || string(body) != want {
			t.Errorf("%s HTTP failure: status %d body %q, want 422 %q", what, resp.StatusCode, body, want)
		}
	}
}

// TestMetricsExportDeltaSeries checks /metrics carries the tuning
// series of incremental synthesis: delta request and partition outcome
// counters, and per-stage store occupancy.
func TestMetricsExportDeltaSeries(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	svc := New(Config{Store: st})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	base := designs.Lookup("Timed Passage").Build()
	baseJSON, err := netlist.MarshalJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/synthesize", JSONRequest{Design: baseJSON}); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/delta", DeltaJSONRequest{Design: baseJSON, Edits: paramTweak(t, base, 1)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"eblocksd_delta_requests_total 1",
		`eblocksd_partitions_total{outcome="adopted"}`,
		`eblocksd_partitions_total{outcome="recomputed"}`,
		`eblocksd_store_stage_entries{stage="partition.v1"}`,
		`eblocksd_store_stage_entries{stage="partitioned.v3"}`,
		`eblocksd_store_stage_entries{stage="response.v1"}`,
		`eblocksd_store_stage_entries{stage="design.v1"}`,
		`eblocksd_store_stage_bytes{stage="partition.v1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The adopted counter must be live, not just present: the delta
	// above adopted at least one partition.
	if stats := svc.Stats(); stats.PartitionsAdopted == 0 {
		t.Error("partitionsAdopted is 0 after a warm delta")
	}
}

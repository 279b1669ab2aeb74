package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/randgen"
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
// is unrealizable (contracted graph cyclic): the first failure
// persists a marker, identical requests — synthesis and delta, before
// and after a restart — fail immediately from the negative cache.
func TestInfeasibleNegativeCache(t *testing.T) {
	// randgen(8, seed 3) under paredown + paper mode contracts to a
	// cyclic block graph.
	build := func() Request {
		return Request{Design: randgen.MustGenerate(randgen.Params{InnerBlocks: 8, Seed: 3}), PaperMode: true}
	}
	dir := t.TempDir()
	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1})
	ctx := context.Background()

	if _, _, err := svc1.Synthesize(ctx, build()); !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("first synthesis: %v, want ErrUnrealizable", err)
	}
	if st := svc1.Stats(); st.InfeasibleHits != 0 {
		t.Errorf("first failure counted %d infeasible hits, want 0", st.InfeasibleHits)
	}
	if _, _, err := svc1.Synthesize(ctx, build()); !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("second synthesis: %v, want ErrUnrealizable", err)
	}
	if st := svc1.Stats(); st.InfeasibleHits != 1 {
		t.Errorf("repeated failure counted %d infeasible hits, want 1", st.InfeasibleHits)
	}

	st1.Close()

	// The delta path populates and hits the same marker: against a
	// fresh store, the first delta runs the pipeline and fails (a
	// non-structural edit carries the cyclic partitioning over), the
	// second fails fast from the marker the first left.
	stD := openStore(t, t.TempDir())
	defer stD.Close()
	svcD := New(Config{Store: stD})
	req := build()
	edits := paramTweak(t, req.Design, 1)
	if _, _, _, err := svcD.Delta(ctx, req, edits); !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("first delta: %v, want ErrUnrealizable", err)
	}
	if st := svcD.Stats(); st.InfeasibleHits != 0 {
		t.Errorf("first delta counted %d infeasible hits, want 0", st.InfeasibleHits)
	}
	if _, _, _, err := svcD.Delta(ctx, build(), edits); !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("second delta: %v, want ErrUnrealizable", err)
	}
	if st := svcD.Stats(); st.InfeasibleHits != 1 {
		t.Errorf("after repeated delta: %d infeasible hits, want 1", st.InfeasibleHits)
	}

	// The marker is persisted: a fresh process fails fast too.
	st2 := openStore(t, dir)
	defer st2.Close()
	svc2 := New(Config{Store: st2})
	if _, _, err := svc2.Synthesize(ctx, build()); !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("post-restart synthesis: %v, want ErrUnrealizable", err)
	}
	if st := svc2.Stats(); st.InfeasibleHits != 1 {
		t.Errorf("post-restart: %d infeasible hits, want 1", st.InfeasibleHits)
	}
}

// TestMetricsExportDeltaSeries checks /metrics carries the tuning
// series this PR adds: delta request and partition outcome counters,
// the negative-cache counter, and per-stage store occupancy.
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
		"eblocksd_infeasible_hits_total 0",
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

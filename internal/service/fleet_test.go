package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// newFleetPair builds the two-instance topology of the fleet-cache
// acceptance test: instance A is a plain store-backed server; instance
// B's store has a remote tier pointed at A's /v1/store routes. The
// returned stop tears down A (server and store) to simulate a dead
// origin; B keeps running.
func newFleetPair(t *testing.T) (svcA, svcB *Service, tsA, tsB *httptest.Server, stB *store.Store, stopA func()) {
	t.Helper()
	stA, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svcA = New(Config{Store: stA})
	tsA = httptest.NewServer(svcA.Handler())

	remote := store.NewRemote(tsA.URL+"/v1/store", store.RemoteOptions{Cooldown: time.Hour})
	stB, err = store.Open(t.TempDir(), store.Options{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	svcB = New(Config{Store: stB})
	tsB = httptest.NewServer(svcB.Handler())

	stopped := false
	stopA = func() {
		if !stopped {
			stopped = true
			tsA.Close()
			stA.Close()
		}
	}
	t.Cleanup(func() { stopA(); tsB.Close(); stB.Close() })
	return svcA, svcB, tsA, tsB, stB, stopA
}

// TestFleetSharedOrigin is the PR's acceptance criterion end to end:
// instance B, with -store-remote pointed at instance A, serves
// /v1/synthesize and /v1/verify responses byte-identical to A's from
// the remote tier (X-Cache: remote) without running
// partition/merge/emit/simulation itself, writes its own artifacts
// through to A, and keeps serving (as miss) once the origin is gone.
func TestFleetSharedOrigin(t *testing.T) {
	svcA, svcB, tsA, tsB, stB, stopA := newFleetPair(t)

	synthReq := JSONRequest{Design: designJSON(t, "Podium Timer 3")}

	// A computes once.
	respA, bodyA := postJSON(t, tsA.URL+"/v1/synthesize", synthReq)
	if got := respA.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("A cold synthesize X-Cache = %q, want miss", got)
	}

	// B serves the same bytes from A's artifact, without synthesizing.
	httpResp, bodyB := postJSON(t, tsB.URL+"/v1/synthesize", synthReq)
	if got := httpResp.Header.Get("X-Cache"); got != "remote" {
		t.Fatalf("B synthesize X-Cache = %q, want remote (%s)", got, bodyB)
	}
	if string(bodyA) != string(bodyB) {
		t.Fatalf("remote-served response differs from origin's:\n%s\nvs\n%s", bodyA, bodyB)
	}
	if st := svcB.Stats(); st.CacheMisses != 0 || st.RemoteHits != 1 {
		t.Fatalf("B ran the pipeline for a remote-cached job: %+v", st)
	}

	// The fetched artifact was written through B's local tiers.
	if resp, _ := postJSON(t, tsB.URL+"/v1/synthesize", synthReq); resp.Header.Get("X-Cache") != "memory" {
		t.Errorf("B re-request X-Cache = %q, want memory", resp.Header.Get("X-Cache"))
	}

	// Verification artifacts share the same fleet namespace: B answers
	// A's verified.v1 (and partitioned) artifacts without simulating.
	vreq := verifyReq(t, "Night Lamp Controller")
	respA, vbodyA := postJSON(t, tsA.URL+"/v1/verify", vreq)
	if got := respA.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("A cold verify X-Cache = %q, want miss", got)
	}
	httpResp, vbodyB := postJSON(t, tsB.URL+"/v1/verify", vreq)
	if got := httpResp.Header.Get("X-Cache"); got != "remote" {
		t.Fatalf("B verify X-Cache = %q, want remote (%s)", got, vbodyB)
	}
	if string(vbodyA) != string(vbodyB) {
		t.Fatalf("remote-served verify response differs from origin's:\n%s\nvs\n%s", vbodyA, vbodyB)
	}
	if st := svcB.Stats(); st.CacheMisses != 0 {
		t.Fatalf("B ran the pipeline for a remote-cached verification: %+v", st)
	}

	// Write-through runs the other way too: a job B computes lands on
	// A, which then serves it without synthesizing.
	other := JSONRequest{Design: designJSON(t, "Two-Zone Security")}
	if resp, _ := postJSON(t, tsB.URL+"/v1/synthesize", other); resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("B cold synthesize of a new design did not miss")
	}
	stB.Flush() // write-through to the origin runs asynchronously
	missesBefore := svcA.Stats().CacheMisses
	respA, _ = postJSON(t, tsA.URL+"/v1/synthesize", other)
	if got := respA.Header.Get("X-Cache"); got != "memory" && got != "disk" {
		t.Errorf("A X-Cache after B's write-through = %q, want memory or disk", got)
	}
	if got := svcA.Stats().CacheMisses; got != missesBefore {
		t.Errorf("A recomputed a job B pushed to it (misses %d -> %d)", missesBefore, got)
	}

	// Kill the origin: B degrades to local-only and keeps answering.
	stopA()
	third := JSONRequest{Design: designJSON(t, "Timed Passage")}
	httpResp, body := postJSON(t, tsB.URL+"/v1/synthesize", third)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("B with a dead origin answered %d: %s", httpResp.StatusCode, body)
	}
	if got := httpResp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("B with a dead origin X-Cache = %q, want miss", got)
	}
	if resp, _ := postJSON(t, tsB.URL+"/v1/synthesize", third); resp.Header.Get("X-Cache") != "memory" {
		t.Errorf("B re-request with a dead origin X-Cache = %q, want memory", resp.Header.Get("X-Cache"))
	}
	// B's own stats surface the degradation for operators.
	if st := svcB.Stats(); st.Store.Remote == nil || st.Store.Remote.Errors == 0 {
		t.Errorf("dead-origin errors not visible in stats: %+v", svcB.Stats().Store)
	}
}

// TestPersistDesignOncePerStore: an inline simulate persists its
// design.v1 entry once. The identical second request finds the entry
// in the worker's index, so it neither installs it again nor offers it
// to the origin a second time.
func TestPersistDesignOncePerStore(t *testing.T) {
	svcA, _, _, tsB, stB, _ := newFleetPair(t)
	req := SimulateJSONRequest{
		Design: designJSON(t, "Night Lamp Controller"),
		Script: "at 100 set motion 1\nat 5000 set motion 0\n",
	}
	putsBefore := stB.Stats().Puts
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, tsB.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := stB.Stats().Puts - putsBefore; got != 1 {
		t.Errorf("two identical inline simulates made %d store puts, want 1", got)
	}
	stB.Flush() // write-through to the origin runs asynchronously
	if got := svcA.Stats().Store.OriginPuts; got != 1 {
		t.Errorf("origin saw %d PUTs, want 1", got)
	}
}

// TestPrometheusMetricsEndpoint checks /metrics speaks the text
// exposition format and agrees with /v1/stats.
func TestPrometheusMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newStoreServer(t, dir)
	req := JSONRequest{Design: designJSON(t, "Podium Timer 3")}
	postJSON(t, ts.URL+"/v1/synthesize", req) // miss
	postJSON(t, ts.URL+"/v1/synthesize", req) // memory hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE eblocksd_requests_total counter\n",
		"eblocksd_requests_total 2\n",
		"eblocksd_cache_hits_total{tier=\"memory\"} 1\n",
		"eblocksd_cache_hits_total{tier=\"remote\"} 0\n",
		"eblocksd_cache_misses_total 1\n",
		"# TYPE eblocksd_request_latency_seconds summary\n",
		"eblocksd_request_latency_seconds{quantile=\"0.99\"} ",
		"eblocksd_request_latency_seconds_count 2\n",
		"# TYPE eblocksd_store_entries gauge\n",
		"eblocksd_store_puts_total ",
		"eblocksd_store_origin_requests_total{op=\"get\"} 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}

	// Wrong method is rejected.
	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
		}
	}
}

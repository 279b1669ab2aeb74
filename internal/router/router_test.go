package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/load"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/store"
)

// newWorker builds one store-backed eblocksd service; origin != ""
// layers a remote tier under the local store so the worker shares the
// origin's artifact namespace (the fleet topology the router's sibling
// retry depends on).
func newWorker(t *testing.T, origin string) *httptest.Server {
	t.Helper()
	opts := store.Options{}
	if origin != "" {
		opts.Remote = store.NewRemote(origin+"/v1/store", store.RemoteOptions{Cooldown: time.Hour})
	}
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.New(service.Config{Store: st}).Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	return ts
}

// newFleet builds the acceptance topology: worker 0 is the shared
// store origin, the rest mount it as their remote tier, and the router
// shards across all of them. No background prober — tests drive
// membership with ProbeOnce.
func newFleet(t *testing.T, n int, opts Options) (workers []*httptest.Server, rt *Router, rts *httptest.Server) {
	t.Helper()
	workers = make([]*httptest.Server, n)
	workers[0] = newWorker(t, "")
	for i := 1; i < n; i++ {
		workers[i] = newWorker(t, workers[0].URL)
	}
	for _, w := range workers {
		opts.Workers = append(opts.Workers, w.URL)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rts = httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })
	return workers, rt, rts
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp, buf.Bytes()
}

// decodeBatchNDJSON parses a router batch stream into its result
// records (indexed) and the done record, failing on torn lines,
// duplicate indices, or a missing/misplaced done record.
func decodeBatchNDJSON(t *testing.T, body []byte) (map[int]BatchRecord, BatchRecord) {
	t.Helper()
	results := map[int]BatchRecord{}
	var done BatchRecord
	sawDone := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, maxStreamLine), maxStreamLine)
	for sc.Scan() {
		if sawDone {
			t.Fatalf("record after done record: %s", sc.Text())
		}
		var rec BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("torn or invalid NDJSON record %q: %v", sc.Text(), err)
		}
		if rec.Type == "done" {
			done, sawDone = rec, true
			continue
		}
		if rec.Index == nil {
			t.Fatalf("result record without index: %s", sc.Text())
		}
		if _, dup := results[*rec.Index]; dup {
			t.Fatalf("duplicate record for index %d", *rec.Index)
		}
		results[*rec.Index] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning batch stream: %v", err)
	}
	if !sawDone {
		t.Fatalf("batch stream ended without a done record:\n%s", body)
	}
	return results, done
}

// TestRouterByteIdentity is the PR's acceptance criterion: a
// three-worker fleet behind the router serves the steady load mix
// byte-identical to a single directly-addressed worker — same status,
// same body, for every pipeline route — with X-Shard labeling every
// response. Batch responses are compared record-by-record (the router
// streams NDJSON where a worker returns one JSON document; the
// payloads must still match exactly).
func TestRouterByteIdentity(t *testing.T) {
	_, _, rts := newFleet(t, 3, Options{})
	ref := newWorker(t, "")

	gen, err := load.NewGen("steady", 7)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for i := 0; i < 40; i++ {
		it := gen.Item(i)
		refResp, refBody := postRaw(t, ref.URL+it.Path, it.Body)
		gotResp, gotBody := postRaw(t, rts.URL+it.Path, it.Body)
		if gotResp.Header.Get("X-Shard") == "" && it.Route != "/v1/batch" {
			t.Errorf("item %d (%s): router response missing X-Shard", i, it.Route)
		}
		if it.Route == "/v1/batch" {
			if gotResp.StatusCode != http.StatusOK {
				t.Fatalf("item %d: router batch status %d: %s", i, gotResp.StatusCode, gotBody)
			}
			var refBatch struct {
				Responses []json.RawMessage `json:"responses"`
			}
			if err := json.Unmarshal(refBody, &refBatch); err != nil {
				t.Fatalf("item %d: reference batch: %v", i, err)
			}
			results, done := decodeBatchNDJSON(t, gotBody)
			if len(results) != len(refBatch.Responses) || done.OK != len(refBatch.Responses) || done.Failed != 0 {
				t.Fatalf("item %d: batch got %d records (done ok=%d failed=%d), want %d",
					i, len(results), done.OK, done.Failed, len(refBatch.Responses))
			}
			for j, refRaw := range refBatch.Responses {
				var compact bytes.Buffer
				if err := json.Compact(&compact, refRaw); err != nil {
					t.Fatal(err)
				}
				rec, ok := results[j]
				if !ok {
					t.Fatalf("item %d: batch record %d missing", i, j)
				}
				if rec.Error != "" {
					t.Fatalf("item %d: batch record %d errored: %s", i, j, rec.Error)
				}
				if !bytes.Equal(rec.Response, compact.Bytes()) {
					t.Fatalf("item %d: batch record %d differs from reference:\n%s\nvs\n%s",
						i, j, rec.Response, compact.Bytes())
				}
			}
		} else {
			if gotResp.StatusCode != refResp.StatusCode {
				t.Fatalf("item %d (%s): router status %d, reference %d (%s)",
					i, it.Route, gotResp.StatusCode, refResp.StatusCode, gotBody)
			}
			if !bytes.Equal(gotBody, refBody) {
				t.Fatalf("item %d (%s): router response differs from reference:\n%s\nvs\n%s",
					i, it.Route, gotBody, refBody)
			}
		}
		compared++
	}
	if compared != 40 {
		t.Fatalf("compared %d items, want 40", compared)
	}
}

// TestRouterStreamPassThrough: ?stream=ndjson and ?format=vcd bodies
// arrive through the router byte-identical to the direct worker's.
func TestRouterStreamPassThrough(t *testing.T) {
	_, _, rts := newFleet(t, 3, Options{})
	ref := newWorker(t, "")

	e := designs.Lookup("Podium Timer 3")
	raw, err := netlist.MarshalJSON(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"design": json.RawMessage(raw),
		"script": "at 100 set start 1\nat 200 set start 0\n",
		"until":  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"?stream=ndjson", "?format=vcd"} {
		refResp, refBody := postRaw(t, ref.URL+"/v1/simulate"+q, body)
		gotResp, gotBody := postRaw(t, rts.URL+"/v1/simulate"+q, body)
		if gotResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s), want 200 so the streaming path is exercised", q, gotResp.StatusCode, gotBody)
		}
		if gotResp.StatusCode != refResp.StatusCode {
			t.Fatalf("%s: status %d vs %d", q, gotResp.StatusCode, refResp.StatusCode)
		}
		if gotResp.Header.Get("X-Shard") == "" {
			t.Errorf("%s: missing X-Shard", q)
		}
		if !bytes.Equal(gotBody, refBody) {
			t.Fatalf("%s: streamed body differs from direct worker:\n%s\nvs\n%s", q, gotBody, refBody)
		}
	}
}

// TestRouterAffinity: the same design always lands on the same shard
// (that is the point of rendezvous routing — cache locality), and the
// shard matches the picker's prediction.
func TestRouterAffinity(t *testing.T) {
	_, rt, rts := newFleet(t, 3, Options{})
	for _, e := range designs.Library()[:5] {
		raw, err := netlist.MarshalJSON(e.Build())
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"design": json.RawMessage(raw)})
		if err != nil {
			t.Fatal(err)
		}
		want := Owner(netlist.Fingerprint(e.Build()), rt.healthyShards())
		for rep := 0; rep < 3; rep++ {
			resp, rb := postRaw(t, rts.URL+"/v1/synthesize", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", e.Name, resp.StatusCode, rb)
			}
			if got := resp.Header.Get("X-Shard"); got != want {
				t.Fatalf("%s rep %d: served by %s, want owner %s", e.Name, rep, got, want)
			}
		}
	}
}

// TestRouterOneWorkerDown: with one worker of three killed, a steady
// mix through the router yields ZERO client-visible errors — every
// request that routed to the dead shard is absorbed by its rendezvous
// sibling (X-Retried-Shard) or, once the health machine has marked the
// shard down, routed around it entirely; the stats account for the
// retries.
func TestRouterOneWorkerDown(t *testing.T) {
	workers, rt, rts := newFleet(t, 3, Options{Cooldown: time.Hour})
	victim := workers[2]
	victimName := strings.TrimPrefix(victim.URL, "http://")
	victim.Close()

	gen, err := load.NewGen("steady", 11)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i := 0; i < 30; i++ {
		it := gen.Item(i)
		resp, body := postRaw(t, rts.URL+it.Path, it.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %d (%s): status %d with a 2-of-3 fleet: %s", i, it.Route, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Retried-Shard") == victimName {
			retried++
		}
		if it.Route == "/v1/batch" {
			results, done := decodeBatchNDJSON(t, body)
			if done.Failed != 0 {
				t.Fatalf("item %d: batch failed %d records with a 2-of-3 fleet:\n%s", i, done.Failed, body)
			}
			for idx, rec := range results {
				if rec.Shard == victimName {
					t.Fatalf("item %d record %d: claims service by the dead shard", i, idx)
				}
				if rec.RetriedShard == victimName {
					retried++
				}
			}
		}
	}

	st := rt.Stats()
	if st.Errors != 0 {
		t.Fatalf("router originated %d errors; every request was absorbed, stats: %+v", st.Errors, st)
	}
	if retried == 0 {
		t.Fatalf("no request was sibling-retried; the dead shard owned none of the mix? stats: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("client saw %d retried responses but the router counted none: %+v", retried, st)
	}
	var victimStats *ShardStats
	for i := range st.Shards {
		if st.Shards[i].Name == victimName {
			victimStats = &st.Shards[i]
		}
	}
	if victimStats == nil || victimStats.Healthy {
		t.Fatalf("dead shard still marked healthy: %+v", st.Shards)
	}
	if victimStats.Errors == 0 || victimStats.Transitions == 0 {
		t.Fatalf("dead shard's failure left no trace in its counters: %+v", *victimStats)
	}
}

// TestRouterProbeRecovery drives the health machine end to end: a
// probe marks a dead shard unhealthy, requests route around it, and
// after the worker returns and the cooldown elapses a probe restores
// it to rotation.
func TestRouterProbeRecovery(t *testing.T) {
	down := false
	inner := service.New(service.Config{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()
	steady := newWorker(t, "")

	rt, err := New(Options{Workers: []string{flaky.URL, steady.URL}, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	flakyName := strings.TrimPrefix(flaky.URL, "http://")

	down = true
	rt.ProbeOnce(context.Background())
	if got := rt.healthyShards(); len(got) != 1 || got[0] == flakyName {
		t.Fatalf("after failed probe healthyShards = %v", got)
	}

	// Recovery needs the cooldown to elapse first: an immediate probe
	// success must NOT restore the shard.
	down = false
	rt.ProbeOnce(context.Background())
	time.Sleep(60 * time.Millisecond)
	rt.ProbeOnce(context.Background())
	if got := rt.healthyShards(); len(got) != 2 {
		t.Fatalf("after recovery probe healthyShards = %v, want both", got)
	}
	s := rt.shardByName(flakyName)
	s.mu.Lock()
	transitions := s.Transitions
	s.mu.Unlock()
	if transitions != 2 {
		t.Fatalf("flaky shard transitions = %d, want 2 (down, up)", transitions)
	}
}

// TestRouterObservability: /healthz, /v1/stats and /metrics expose the
// router's own counters in the repo's standard shapes.
func TestRouterObservability(t *testing.T) {
	_, _, rts := newFleet(t, 2, Options{})

	e := designs.Lookup("Podium Timer 3")
	raw, err := netlist.MarshalJSON(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"design": json.RawMessage(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, rb := postRaw(t, rts.URL+"/v1/synthesize", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d: %s", resp.StatusCode, rb)
	}

	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK            bool `json:"ok"`
		Shards        int  `json:"shards"`
		HealthyShards int  `json:"healthyShards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hz.OK || hz.Shards != 2 || hz.HealthyShards != 2 {
		t.Fatalf("healthz = %+v", hz)
	}

	resp, err = http.Get(rts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests == 0 || len(st.Shards) != 2 || st.HealthyShards != 2 {
		t.Fatalf("stats = %+v", st)
	}

	resp, err = http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"eblocksrouter_requests_total 1",
		"eblocksrouter_healthy_shards 2",
		"eblocksrouter_shard_requests_total{shard=",
		"eblocksrouter_shard_healthy{shard=",
		`eblocksrouter_request_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestRouterErrorPassThrough: a worker's deterministic 4xx verdict
// passes through unchanged (no retry — both shards would say the same
// thing), and an unroutable body still reaches a worker via the
// body-hash fallback key.
func TestRouterErrorPassThrough(t *testing.T) {
	_, rt, rts := newFleet(t, 2, Options{})
	ref := newWorker(t, "")

	for _, body := range [][]byte{
		[]byte(`{"ebk": "not a real program"}`),
		[]byte(`this is not even JSON`),
		[]byte(`{}`),
	} {
		refResp, refBody := postRaw(t, ref.URL+"/v1/synthesize", body)
		gotResp, gotBody := postRaw(t, rts.URL+"/v1/synthesize", body)
		if gotResp.StatusCode != refResp.StatusCode || !bytes.Equal(gotBody, refBody) {
			t.Fatalf("malformed body %q: router (%d, %s) != reference (%d, %s)",
				body, gotResp.StatusCode, gotBody, refResp.StatusCode, refBody)
		}
		if gotResp.Header.Get("X-Retried-Shard") != "" {
			t.Errorf("worker 4xx was retried: %q", body)
		}
	}
	// A batch the worker rejects: its verdict travels in each item's
	// record and is no router failure either.
	resp, got := postRaw(t, rts.URL+"/v1/batch", []byte(`{"requests": [{"ebk": "not a real program"}]}`))
	results, done := decodeBatchNDJSON(t, got)
	if resp.StatusCode != http.StatusOK || done.Failed != 1 || results[0].Status < 400 || results[0].Status >= 500 {
		t.Fatalf("rejected batch: status %d, done %+v, record %+v", resp.StatusCode, done, results[0])
	}
	if st := rt.Stats(); st.Retries != 0 || st.Errors != 0 {
		t.Fatalf("deterministic worker verdicts counted as router failures: %+v", st)
	}

	// Method and admission errors the router answers itself.
	resp, err := http.Get(rts.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/synthesize = %d, want 405", resp.StatusCode)
	}
	big := bytes.Repeat([]byte("x"), service.MaxRequestBody+1)
	resp2, body2 := postRaw(t, rts.URL+"/v1/synthesize", big)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize body = %d (%s), want 400", resp2.StatusCode, body2)
	}
	var re routerError
	if err := json.Unmarshal(body2, &re); err != nil || re.Error == "" {
		t.Fatalf("oversize body error not typed JSON: %s", body2)
	}
}

// TestNewValidation: New rejects empty and duplicate worker sets.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New with no workers succeeded")
	}
	if _, err := New(Options{Workers: []string{"http://a:1", "a:1"}}); err == nil {
		t.Fatal("New with duplicate workers succeeded")
	}
	if _, err := New(Options{Workers: []string{"http://a:1", ""}}); err == nil {
		t.Fatal("New with an empty worker succeeded")
	}
	rt, err := New(Options{Workers: []string{"bare-host:8080"}})
	if err != nil {
		t.Fatalf("scheme-less worker rejected: %v", err)
	}
	defer rt.Close()
	if rt.shards[0].URL != "http://bare-host:8080" || rt.shards[0].Name != "bare-host:8080" {
		t.Fatalf("scheme-less worker normalized to %q / %q", rt.shards[0].URL, rt.shards[0].Name)
	}
}

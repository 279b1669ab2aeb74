package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/store"
)

// chaos failure modes, settable per worker at any point mid-test.
const (
	chaosOK int32 = iota
	// chaosKill closes the TCP connection on every request before
	// writing anything: the crashed-worker case (transport error).
	chaosKill
	// chaosTruncate serves /v1/simulate streams that die mid-record:
	// two complete NDJSON records, then a torn fragment, then a clean
	// connection close — the worst case for record framing.
	chaosTruncate
	// chaosShortBatch answers /v1/batch with a Content-Length larger
	// than the bytes it writes: the worker-died-mid-response case
	// (the router's body read fails after a 200 status).
	chaosShortBatch
	// chaosShortSynth is chaosShortBatch for /v1/synthesize: a
	// buffered single-shard route whose worker dies mid-body.
	chaosShortSynth
)

// chaos wraps one worker's handler with a switchable failure mode.
type chaos struct {
	inner http.Handler
	mode  atomic.Int32
}

func (c *chaos) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch c.mode.Load() {
	case chaosKill:
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("chaos: response writer is not a Hijacker")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	case chaosTruncate:
		if r.URL.Path == "/v1/simulate" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			f := w.(http.Flusher)
			w.Write([]byte(`{"type":"start","fingerprint":"chaos"}` + "\n"))
			w.Write([]byte(`{"type":"progress","cycle":100}` + "\n"))
			f.Flush()
			w.Write([]byte(`{"type":"prog`)) // torn mid-record, then clean EOF
			f.Flush()
			return
		}
	case chaosShortBatch:
		if r.URL.Path == "/v1/batch" {
			writeShort(w, `{"responses": [`)
			return
		}
	case chaosShortSynth:
		if r.URL.Path == "/v1/synthesize" {
			writeShort(w, `{"designHash": `)
			return
		}
	}
	c.inner.ServeHTTP(w, r)
}

// writeShort answers 200 with a Content-Length larger than the bytes
// it writes, then returns: the server closes the connection, and the
// reader's body read fails after the status line.
func writeShort(w http.ResponseWriter, prefix string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", "100000")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(prefix))
}

// newChaosFleet is newFleet with every worker behind a chaos wrapper:
// worker 0 carries the shared store origin, the rest mount it as their
// remote tier (through the wrapper, as a real fleet would — a dead
// origin degrades the siblings to local-only, it never fails them).
func newChaosFleet(t *testing.T) (wrappers []*chaos, names []string, rt *Router, rts *httptest.Server) {
	t.Helper()
	wrappers = make([]*chaos, 3)
	var workerURLs []string
	for i := range wrappers {
		opts := store.Options{}
		if i > 0 {
			opts.Remote = store.NewRemote(workerURLs[0]+"/v1/store", store.RemoteOptions{Cooldown: time.Hour})
		}
		st, err := store.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = &chaos{inner: service.New(service.Config{Store: st}).Handler()}
		ts := httptest.NewServer(wrappers[i])
		t.Cleanup(func() { ts.Close(); st.Close() })
		workerURLs = append(workerURLs, ts.URL)
		names = append(names, strings.TrimPrefix(ts.URL, "http://"))
	}
	rt, err := New(Options{Workers: workerURLs, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rts = httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })
	return wrappers, names, rt, rts
}

// simBody builds a streaming /v1/simulate request for a library
// design and returns the body plus the design's routing fingerprint.
func simBody(t *testing.T, name string) (body []byte, fp string) {
	t.Helper()
	e := designs.Lookup(name)
	d := e.Build()
	raw, err := netlist.MarshalJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	body, err = json.Marshal(map[string]any{
		"design": json.RawMessage(raw),
		"script": "at 100 set start 1\nat 200 set start 0\n",
		"until":  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, netlist.Fingerprint(d)
}

// chaosIndex maps a shard name back to its wrapper.
func chaosIndex(t *testing.T, names []string, name string) int {
	t.Helper()
	for i, n := range names {
		if n == name {
			return i
		}
	}
	t.Fatalf("shard %q not in fleet %v", name, names)
	return -1
}

// TestChaosStreamOwnerDead: the design's owner shard is dead before
// the stream starts. The sibling absorbs the request invisibly: the
// client gets a complete 200 NDJSON stream, labeled X-Retried-Shard,
// and the router's counters account for the one retry.
func TestChaosStreamOwnerDead(t *testing.T) {
	wrappers, names, rt, rts := newChaosFleet(t)
	body, fp := simBody(t, "Podium Timer 3")
	owner := Owner(fp, names)
	wrappers[chaosIndex(t, names, owner)].mode.Store(chaosKill)

	resp, got := postRaw(t, rts.URL+"/v1/simulate?stream=ndjson", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if r := resp.Header.Get("X-Retried-Shard"); r != owner {
		t.Fatalf("X-Retried-Shard = %q, want dead owner %q", r, owner)
	}
	if s := resp.Header.Get("X-Shard"); s == owner {
		t.Fatalf("served by the dead owner %q", s)
	}
	// Every line is a complete record and the stream finished with the
	// worker's own done record, not a router abort.
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	var last struct {
		Type string `json:"type"`
	}
	for _, ln := range lines {
		if err := json.Unmarshal(ln, &last); err != nil {
			t.Fatalf("torn record %q: %v", ln, err)
		}
	}
	if last.Type != "done" {
		t.Fatalf("stream ended with %q record, want done", last.Type)
	}

	st := rt.Stats()
	if st.Retries != 1 || st.Errors != 0 || st.StreamAborts != 0 {
		t.Fatalf("counters after one absorbed retry: %+v", st)
	}
	for _, ss := range st.Shards {
		if ss.Name == owner && (ss.Healthy || ss.Errors != 1 || ss.Retries != 1 || ss.Transitions != 1) {
			t.Fatalf("dead owner's ledger: %+v", ss)
		}
	}
}

// TestChaosStreamTruncatedMidRecord: the owner dies mid-record,
// AFTER the 200 and two complete records. The client must receive
// exactly the complete records plus one in-band typed error record —
// never the torn fragment — and the abort must be counted.
func TestChaosStreamTruncatedMidRecord(t *testing.T) {
	wrappers, names, rt, rts := newChaosFleet(t)
	body, fp := simBody(t, "Podium Timer 3")
	owner := Owner(fp, names)
	wrappers[chaosIndex(t, names, owner)].mode.Store(chaosTruncate)

	resp, got := postRaw(t, rts.URL+"/v1/simulate?stream=ndjson", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (the 200 was already committed when the worker died): %s", resp.StatusCode, got)
	}
	if bytes.Contains(got, []byte(`{"type":"prog`+"\n")) {
		t.Fatalf("torn fragment leaked to the client:\n%s", got)
	}
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d records, want 2 complete + 1 error:\n%s", len(lines), got)
	}
	var errRec struct {
		Type, Error, Shard string
	}
	if err := json.Unmarshal(lines[2], &errRec); err != nil {
		t.Fatalf("final record is torn %q: %v", lines[2], err)
	}
	if errRec.Type != "error" || errRec.Shard != owner || !strings.Contains(errRec.Error, "mid-stream") {
		t.Fatalf("final record is not the router's typed abort: %+v", errRec)
	}

	st := rt.Stats()
	if st.StreamAborts != 1 || st.Errors != 1 || st.Retries != 0 {
		t.Fatalf("counters after one mid-stream abort: %+v", st)
	}
	if rt.shardByName(owner).isHealthy() {
		t.Fatalf("mid-stream death left %s in rotation", owner)
	}
}

// chaosBatch builds a batch over every library design (large enough
// to span all three shards) and the reference responses to check
// against.
func chaosBatch(t *testing.T) (body []byte, refCompact [][]byte) {
	t.Helper()
	ref := newWorker(t, "")
	var reqs []map[string]any
	for _, e := range designs.Library() {
		raw, err := netlist.MarshalJSON(e.Build())
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, map[string]any{"design": json.RawMessage(raw)})
	}
	body, err := json.Marshal(map[string]any{"requests": reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, refBody := postRaw(t, ref.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference batch: %d: %s", resp.StatusCode, refBody)
	}
	var rb struct {
		Responses []json.RawMessage `json:"responses"`
	}
	if err := json.Unmarshal(refBody, &rb); err != nil {
		t.Fatal(err)
	}
	for _, raw := range rb.Responses {
		var c bytes.Buffer
		if err := json.Compact(&c, raw); err != nil {
			t.Fatal(err)
		}
		refCompact = append(refCompact, append([]byte(nil), c.Bytes()...))
	}
	return body, refCompact
}

// TestChaosBatchWorkerDeath kills one worker under concurrent
// scatter-gathered batches — once dead at the connection level, once
// dying mid-response after a 200 (short body). In both modes every
// request index must resolve exactly once with the byte-exact
// reference payload (sibling retry), never hang, and the counters
// must account for the retries.
func TestChaosBatchWorkerDeath(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode int32
	}{
		{"connection-kill", chaosKill},
		{"short-body-after-200", chaosShortBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrappers, names, rt, rts := newChaosFleet(t)
			body, refCompact := chaosBatch(t)

			// Kill the shard that owns the first library design, so at
			// least one sub-batch is guaranteed to hit the dead worker.
			fp := netlist.Fingerprint(designs.Library()[0].Build())
			victim := Owner(fp, names)
			wrappers[chaosIndex(t, names, victim)].mode.Store(tc.mode)

			const concurrency = 4
			var wg sync.WaitGroup
			var retriedRecords atomic.Int64
			for c := 0; c < concurrency; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, got := postRaw(t, rts.URL+"/v1/batch", body)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("batch status %d: %s", resp.StatusCode, got)
						return
					}
					results, done := decodeBatchNDJSON(t, got)
					if done.Failed != 0 || done.OK != len(refCompact) || len(results) != len(refCompact) {
						t.Errorf("done ok=%d failed=%d records=%d, want all %d ok:\n%s",
							done.OK, done.Failed, len(results), len(refCompact), got)
						return
					}
					for i, want := range refCompact {
						rec := results[i]
						if rec.Error != "" {
							t.Errorf("record %d errored: %s (shard %s)", i, rec.Error, rec.Shard)
							continue
						}
						if rec.Shard == victim {
							t.Errorf("record %d claims service by the dead shard", i)
						}
						if rec.RetriedShard == victim {
							retriedRecords.Add(1)
						}
						if !bytes.Equal(rec.Response, want) {
							t.Errorf("record %d differs from reference:\n%s\nvs\n%s", i, rec.Response, want)
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			st := rt.Stats()
			if retriedRecords.Load() == 0 {
				t.Fatalf("no record was sibling-retried though the victim owned design 0: %+v", st)
			}
			if st.Retries == 0 || st.Errors != 0 {
				t.Fatalf("counters after absorbed batch retries: %+v", st)
			}
			if rt.shardByName(victim).isHealthy() {
				t.Fatalf("dead shard still in rotation")
			}
			var victimStats ShardStats
			for _, ss := range st.Shards {
				if ss.Name == victim {
					victimStats = ss
				}
			}
			if victimStats.Errors == 0 || victimStats.Retries == 0 || victimStats.Transitions == 0 {
				t.Fatalf("victim's ledger is empty: %+v", victimStats)
			}
		})
	}
}

// TestChaosBufferedShortBody: the owner of a buffered route dies
// mid-body after a 200 (short body). The client gets the router's
// typed 502 — never a torn document — the failure counts exactly once
// in the router's Errors and the owner's ledger, and the owner leaves
// rotation.
func TestChaosBufferedShortBody(t *testing.T) {
	wrappers, names, rt, rts := newChaosFleet(t)
	d := designs.Lookup("Podium Timer 3").Build()
	raw, err := netlist.MarshalJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"design": json.RawMessage(raw)})
	if err != nil {
		t.Fatal(err)
	}
	owner := Owner(netlist.Fingerprint(d), names)
	wrappers[chaosIndex(t, names, owner)].mode.Store(chaosShortSynth)

	before := rt.Stats()
	resp, got := postRaw(t, rts.URL+"/v1/synthesize", body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("short body after 200: status %d, want 502: %s", resp.StatusCode, got)
	}
	var re routerError
	if err := json.Unmarshal(got, &re); err != nil || re.Shard != owner || !strings.Contains(re.Error, "reading response") {
		t.Fatalf("502 body is not the typed router error naming %s: %s", owner, got)
	}

	st := rt.Stats()
	if n := st.Errors - before.Errors; n != 1 {
		t.Fatalf("short body raised router Errors by %d, want 1: %+v", n, st)
	}
	if rt.shardByName(owner).isHealthy() {
		t.Fatalf("short body left %s in rotation", owner)
	}
	for _, ss := range st.Shards {
		if ss.Name == owner && ss.Errors != 1 {
			t.Fatalf("owner's ledger after one short body: %+v", ss)
		}
	}
}

// TestChaosAllShardsDead: with the whole fleet dead, single-shard
// routes answer a typed 502 JSON error and batches resolve every
// index to a typed per-record 502 — no hangs, no torn output, every
// failure counted.
func TestChaosAllShardsDead(t *testing.T) {
	wrappers, _, rt, rts := newChaosFleet(t)
	body, refCompact := chaosBatch(t)
	for _, c := range wrappers {
		c.mode.Store(chaosKill)
	}

	simReq, _ := simBody(t, "Podium Timer 3")
	resp, got := postRaw(t, rts.URL+"/v1/simulate?stream=ndjson", simReq)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("fleet-wide death: status %d, want 502: %s", resp.StatusCode, got)
	}
	var re routerError
	if err := json.Unmarshal(got, &re); err != nil || re.Error == "" || re.Shard == "" || re.RetriedShard == "" {
		t.Fatalf("502 body is not the typed router error: %s", got)
	}

	before := rt.Stats()
	resp, got = postRaw(t, rts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (the NDJSON 200 is committed before fan-out): %s", resp.StatusCode, got)
	}
	results, done := decodeBatchNDJSON(t, got)
	if done.Failed != len(refCompact) || done.OK != 0 || len(results) != len(refCompact) {
		t.Fatalf("done ok=%d failed=%d records=%d, want all %d failed", done.OK, done.Failed, len(results), len(refCompact))
	}
	for i := range refCompact {
		rec := results[i]
		if rec.Status != http.StatusBadGateway || rec.Error == "" {
			t.Fatalf("record %d: status=%d error=%q, want a typed 502", i, rec.Status, rec.Error)
		}
	}

	// The batch is one client request that failed in the router: it
	// counts as one error however many of its records are 502s.
	st := rt.Stats()
	if n := st.Errors - before.Errors; n != 1 {
		t.Fatalf("batch of router 502s raised Errors by %d, want 1", n)
	}
	if st.Errors == 0 || st.Retries == 0 {
		t.Fatalf("fleet-wide death left no trace: %+v", st)
	}
	if st.HealthyShards != 0 {
		t.Fatalf("%d shards still marked healthy after fleet-wide death", st.HealthyShards)
	}
}

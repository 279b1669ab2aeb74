package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/store"
)

// chainDesign builds a tiny Button -> Not -> LED chain whose single
// traced signal (led.a) toggles on every stimulus, so streamed and
// buffered traces exercise every record path deterministically.
func chainDesign(t *testing.T) (json.RawMessage, *netlist.Design) {
	t.Helper()
	d := netlist.NewDesign("wire", block.Standard())
	d.MustAddBlock("s", "Button")
	d.MustAddBlock("n0", "Not")
	d.MustAddBlock("led", "LED")
	d.MustConnect("s", "y", "n0", "a")
	d.MustConnect("n0", "y", "led", "a")
	raw, err := netlist.MarshalJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	return raw, d
}

// toggleScript toggles the chain's button every step ms through until.
func toggleScript(step, until int64) string {
	var b strings.Builder
	v := int64(1)
	for at := step; at <= until; at += step {
		fmt.Fprintf(&b, "at %d set s %d\n", at, v)
		v = 1 - v
	}
	return b.String()
}

// readStream splits an NDJSON simulate stream into change records
// (lines without a "type" key) and control records.
func readStream(t *testing.T, r io.Reader) (changes []sim.Change, recs []StreamRecord) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if _, ok := probe["type"]; ok {
			var rec StreamRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
			continue
		}
		var c sim.Change
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatal(err)
		}
		changes = append(changes, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return changes, recs
}

// streamPost posts body and returns the raw response for incremental
// reading (the caller closes it).
func streamPost(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// recsOfType filters control records by type.
func recsOfType(recs []StreamRecord, typ string) []StreamRecord {
	var out []StreamRecord
	for _, r := range recs {
		if r.Type == typ {
			out = append(out, r)
		}
	}
	return out
}

// TestHTTPSimulateStreamEndToEnd: the streamed change sequence equals
// the buffered response's trace, framed by start/progress/checkpoint/
// done records, with checkpoints persisted and counted.
func TestHTTPSimulateStreamEndToEnd(t *testing.T) {
	svc, ts, _ := newStoreServer(t, t.TempDir())
	raw, _ := chainDesign(t)
	req := SimulateJSONRequest{Design: raw, Script: toggleScript(250, 3750), Until: 4000}

	// Buffered reference first.
	httpResp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", httpResp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	resp := streamPost(t, ts.URL+"/v1/simulate?stream=ndjson&checkpointEvery=2000", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	changes, recs := readStream(t, resp.Body)

	if len(recs) == 0 || recs[0].Type != "start" {
		t.Fatalf("stream does not open with a start record: %+v", recs)
	}
	start := recs[0]
	if start.Fingerprint != sr.DesignHash || start.StimulusHash != sr.StimulusHash {
		t.Errorf("start identity = %q/%q, want %q/%q",
			start.Fingerprint, start.StimulusHash, sr.DesignHash, sr.StimulusHash)
	}
	if !start.Compiled {
		t.Error("start record reports interpreter mode; service default is compiled")
	}

	if want := sr.Trace.All(); !reflect.DeepEqual(changes, want) {
		t.Errorf("streamed changes differ from buffered trace:\nstream: %v\nbuffer: %v", changes, want)
	}

	cks := recsOfType(recs, "checkpoint")
	if len(cks) != 2 || cks[0].Cycle != 2000 || cks[1].Cycle != 4000 {
		t.Fatalf("checkpoint records = %+v, want cycles 2000 and 4000", cks)
	}
	for _, ck := range cks {
		if ck.Stored == nil || !*ck.Stored {
			t.Errorf("checkpoint at %d not persisted: %+v", ck.Cycle, ck)
		}
	}
	if pg := recsOfType(recs, "progress"); len(pg) == 0 {
		t.Error("no progress heartbeats in a 4000ms stream")
	}

	last := recs[len(recs)-1]
	if last.Type != "done" || last.EndMillis != 4000 {
		t.Fatalf("stream does not end with done@4000: %+v", last)
	}
	if last.Changes != len(changes) {
		t.Errorf("done.changes = %d, want %d", last.Changes, len(changes))
	}
	if !reflect.DeepEqual(last.Outputs, sr.Outputs) {
		t.Errorf("done.outputs = %v, want %v", last.Outputs, sr.Outputs)
	}

	st := svc.Stats()
	if st.StreamRequests != 1 {
		t.Errorf("StreamRequests = %d, want 1", st.StreamRequests)
	}
	if st.StreamedChanges != uint64(len(changes)) {
		t.Errorf("StreamedChanges = %d, want %d", st.StreamedChanges, len(changes))
	}
	if st.SnapshotsSaved != 2 {
		t.Errorf("SnapshotsSaved = %d, want 2", st.SnapshotsSaved)
	}
}

// TestHTTPSimulateVCDStreamedMatchesBuffered: the ?format=vcd route now
// streams through the incremental writer; its output must stay
// byte-identical to rendering the buffered trace with WriteVCD.
func TestHTTPSimulateVCDStreamedMatchesBuffered(t *testing.T) {
	_, ts, _ := newStoreServer(t, t.TempDir())
	raw, d := chainDesign(t)
	script := toggleScript(250, 1750)
	req := SimulateJSONRequest{Design: raw, Script: script, Until: 2000}

	resp := streamPost(t, ts.URL+"/v1/simulate?format=vcd", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same run buffered, rendered after the fact.
	sm, err := sim.New(d, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stims, err := sim.ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Stimulate(stims...); err != nil {
		t.Fatal(err)
	}
	if err := sm.Run(2000); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sim.WriteVCD(&want, sm.Trace(), d.Name); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("streamed VCD differs from buffered rendering:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestHTTPSimulateTraceLimit422: an exhausted trace budget is a client
// error carrying the typed report on the buffered route, and a typed
// error record on the streaming route (the status line is already out).
func TestHTTPSimulateTraceLimit422(t *testing.T) {
	_, ts := newTestServer(t)
	raw, _ := chainDesign(t)
	req := SimulateJSONRequest{
		Design: raw,
		Script: toggleScript(100, 900),
		Until:  1000,
		Config: sim.Config{MaxTraceEvents: 2},
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	var payload struct {
		Error      string               `json:"error"`
		TraceLimit *sim.TraceLimitError `json:"traceLimit"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.TraceLimit == nil || payload.TraceLimit.MaxTraceEvents != 2 {
		t.Fatalf("traceLimit payload = %s", body)
	}

	sresp := streamPost(t, ts.URL+"/v1/simulate?stream=ndjson", req)
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200 (error arrives in-band)", sresp.StatusCode)
	}
	_, recs := readStream(t, sresp.Body)
	last := recs[len(recs)-1]
	if last.Type != "error" || last.TraceLimit == nil || last.TraceLimit.MaxTraceEvents != 2 {
		t.Fatalf("stream does not end with a typed trace-limit error: %+v", last)
	}
}

// TestHTTPStreamValidation covers the 4xx surface of the streaming
// routes: bad stream values, missing horizon, bad intervals, and
// resume requests that cannot be satisfied.
func TestHTTPStreamValidation(t *testing.T) {
	svc, ts, _ := newStoreServer(t, t.TempDir())
	raw, _ := chainDesign(t)
	req := SimulateJSONRequest{Design: raw, Script: toggleScript(250, 750), Until: 1000}

	post := func(url string, body any) int {
		resp := streamPost(t, url, body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(ts.URL+"/v1/simulate?stream=xml", req); got != http.StatusBadRequest {
		t.Errorf("stream=xml: status %d, want 400", got)
	}
	noHorizon := req
	noHorizon.Until = 0
	if got := post(ts.URL+"/v1/simulate?stream=ndjson", noHorizon); got != http.StatusBadRequest {
		t.Errorf("stream without until: status %d, want 400", got)
	}
	if got := post(ts.URL+"/v1/simulate?stream=ndjson&checkpointEvery=-1", req); got != http.StatusBadRequest {
		t.Errorf("negative checkpointEvery: status %d, want 400", got)
	}
	if got := post(ts.URL+"/v1/simulate?stream=ndjson&progressEvery=wat", req); got != http.StatusBadRequest {
		t.Errorf("non-numeric progressEvery: status %d, want 400", got)
	}

	// Resume validation. Run one stream with no checkpoints so the
	// design is persisted but no snapshot exists.
	resp := streamPost(t, ts.URL+"/v1/simulate?stream=ndjson", req)
	_, recs := readStream(t, resp.Body)
	resp.Body.Close()
	fp := recs[0].Fingerprint

	if got := post(ts.URL+"/v1/simulate/resume", ResumeJSONRequest{Cycle: 500, Until: 1000}); got != http.StatusBadRequest {
		t.Errorf("resume without fingerprint: status %d, want 400", got)
	}
	if got := post(ts.URL+"/v1/simulate/resume", ResumeJSONRequest{
		Fingerprint: "feedfacedeadbeef", Cycle: 500, Until: 1000,
	}); got != http.StatusNotFound {
		t.Errorf("resume with unknown fingerprint: status %d, want 404", got)
	}
	if got := post(ts.URL+"/v1/simulate/resume", ResumeJSONRequest{
		Fingerprint: fp, Cycle: 500, Until: 1000, Script: req.Script,
	}); got != http.StatusNotFound {
		t.Errorf("resume with no snapshots: status %d, want 404", got)
	}
	if svc.Stats().SnapshotMisses == 0 {
		t.Error("failed resume lookup not counted as a snapshot miss")
	}
}

// TestHTTPStreamDownStoreBestEffort: checkpoint persistence is an
// optimization — with the store closed underneath the service a
// checkpointed stream still completes, reporting stored:false on every
// checkpoint.
func TestHTTPStreamDownStoreBestEffort(t *testing.T) {
	raw, _ := chainDesign(t)
	req := SimulateJSONRequest{Design: raw, Script: toggleScript(250, 1750), Until: 2000}

	check := func(t *testing.T, svc *Service, url string) {
		resp := streamPost(t, url+"/v1/simulate?stream=ndjson&checkpointEvery=1000", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		changes, recs := readStream(t, resp.Body)
		if last := recs[len(recs)-1]; last.Type != "done" || last.EndMillis != 2000 {
			t.Fatalf("stream did not complete: %+v", last)
		}
		if len(changes) == 0 {
			t.Fatal("no changes streamed")
		}
		cks := recsOfType(recs, "checkpoint")
		if len(cks) != 2 {
			t.Fatalf("checkpoint records = %+v, want 2", cks)
		}
		for _, ck := range cks {
			if ck.Stored == nil || *ck.Stored {
				t.Errorf("checkpoint at %d claims persistence without a working store", ck.Cycle)
			}
		}
		if st := svc.Stats(); st.SnapshotsSaved != 0 {
			t.Errorf("SnapshotsSaved = %d, want 0", st.SnapshotsSaved)
		}
	}

	t.Run("closed store", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Store: st})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		// Persist the design while the store is up, then take the store
		// down: Put now fails, Get now misses.
		if _, _, err := svc.resolveDesign(raw, "", ""); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, svc, ts.URL)
	})
}

// TestHTTPStreamDisconnectResume is the PR's acceptance path: a client
// streams a checkpointed long run from instance A, dies mid-stream,
// and resumes on instance B — which shares A only through the store's
// remote origin — from the persisted snapshot. The stitched trace
// (changes received before the checkpoint + changes after resume) must
// equal an uninterrupted reference run exactly.
func TestHTTPStreamDisconnectResume(t *testing.T) {
	_, svcB, tsA, tsB, _, _ := newFleetPair(t)
	raw, _ := chainDesign(t)
	script := toggleScript(250, 3750)
	req := SimulateJSONRequest{Design: raw, Script: script, Until: 4000}

	// Uninterrupted reference stream on A.
	refResp := streamPost(t, tsA.URL+"/v1/simulate?stream=ndjson", req)
	refChanges, refRecs := readStream(t, refResp.Body)
	refResp.Body.Close()
	if last := refRecs[len(refRecs)-1]; last.Type != "done" {
		t.Fatalf("reference stream failed: %+v", last)
	}
	fp := refRecs[0].Fingerprint

	// Interrupted run on A: read until the cycle-2000 checkpoint is
	// confirmed persisted, then kill the connection.
	resp := streamPost(t, tsA.URL+"/v1/simulate?stream=ndjson&checkpointEvery=1000", req)
	var prefix []sim.Change
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	sawCheckpoint := false
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if _, ok := probe["type"]; !ok {
			var c sim.Change
			if err := json.Unmarshal(line, &c); err != nil {
				t.Fatal(err)
			}
			prefix = append(prefix, c)
			continue
		}
		var rec StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "checkpoint" && rec.Cycle == 2000 {
			if rec.Stored == nil || !*rec.Stored {
				t.Fatalf("checkpoint at 2000 not persisted: %+v", rec)
			}
			sawCheckpoint = true
			break
		}
	}
	resp.Body.Close() // the disconnect
	if !sawCheckpoint {
		t.Fatal("stream ended before the cycle-2000 checkpoint")
	}

	// Resume on B. B has never seen the design or the snapshot locally;
	// both arrive through the shared remote origin.
	rresp := streamPost(t, tsB.URL+"/v1/simulate/resume", ResumeJSONRequest{
		Fingerprint: fp,
		Cycle:       2000,
		Until:       4000,
		Script:      script,
	})
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(rresp.Body)
		t.Fatalf("resume status %d: %s", rresp.StatusCode, body)
	}
	suffix, rrecs := readStream(t, rresp.Body)
	if rrecs[0].Type != "resumed" || rrecs[0].Cycle != 2000 {
		t.Fatalf("resume record = %+v, want resumed@2000", rrecs[0])
	}
	if last := rrecs[len(rrecs)-1]; last.Type != "done" || last.EndMillis != 4000 {
		t.Fatalf("resumed stream did not complete: %+v", last)
	}
	for _, c := range suffix {
		if c.Time <= 2000 {
			t.Fatalf("resumed stream re-emitted pre-checkpoint change %+v", c)
		}
	}

	stitched := append(append([]sim.Change{}, prefix...), suffix...)
	if !reflect.DeepEqual(stitched, refChanges) {
		t.Errorf("stitched trace differs from uninterrupted reference:\nstitched: %v\nref:      %v",
			stitched, refChanges)
	}
	if st := svcB.Stats(); st.SnapshotHits != 1 {
		t.Errorf("SnapshotHits on B = %d, want 1", st.SnapshotHits)
	}
}

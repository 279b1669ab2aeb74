package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/sim"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartServesByteIdenticalFromDisk is the PR's acceptance
// criterion end to end over HTTP: a fresh process (new Service, same
// store dir) serves byte-identical bodies with X-Cache: disk on the
// first hit and X-Cache: memory thereafter.
func TestRestartServesByteIdenticalFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := JSONRequest{Design: designJSON(t, "Podium Timer 3")}

	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1})
	ts1 := httptest.NewServer(svc1.Handler())
	httpResp, before := postJSON(t, ts1.URL+"/v1/synthesize", req)
	if got := httpResp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold request X-Cache = %q, want miss", got)
	}
	ts1.Close()
	st1.Close() // "restart": the old process is gone

	st2 := openStore(t, dir)
	svc2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	httpResp, after := postJSON(t, ts2.URL+"/v1/synthesize", req)
	if got := httpResp.Header.Get("X-Cache"); got != "disk" {
		t.Errorf("first post-restart request X-Cache = %q, want disk", got)
	}
	if !bytes.Equal(before, after) {
		t.Error("post-restart response is not byte-identical to the pre-restart run")
	}
	httpResp, again := postJSON(t, ts2.URL+"/v1/synthesize", req)
	if got := httpResp.Header.Get("X-Cache"); got != "memory" {
		t.Errorf("second post-restart request X-Cache = %q, want memory", got)
	}
	if !bytes.Equal(before, again) {
		t.Error("memory-tier response is not byte-identical to the pre-restart run")
	}

	stats := svc2.Stats()
	if stats.DiskHits != 1 || stats.MemoryHits != 1 {
		t.Errorf("per-tier hits = disk %d / memory %d, want 1 / 1", stats.DiskHits, stats.MemoryHits)
	}
	if stats.Store.Entries == 0 {
		t.Errorf("stats.Store not populated: %+v", stats.Store)
	}
}

// TestCorruptStoreEntryDegradesToMiss corrupts every persisted entry
// between two runs; the second run must recompute (X-Cache: miss) and
// still answer correctly — corruption is never an error.
func TestCorruptStoreEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	req := libraryRequest(t, "Podium Timer 3")

	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1})
	cold, _, err := svc1.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Flip a byte in every entry file.
	err = filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)-1] ^= 0x01
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	svc2 := New(Config{Store: st2})
	resp, src, err := svc2.Synthesize(context.Background(), libraryRequest(t, "Podium Timer 3"))
	if err != nil {
		t.Fatalf("corrupt store surfaced as an error: %v", err)
	}
	if src.Cached() {
		t.Errorf("corrupt entry served as a %v hit", src)
	}
	if resp.InnerAfter != cold.InnerAfter || resp.SynthesizedEBK != cold.SynthesizedEBK {
		t.Error("recomputed response differs from the original")
	}
	if ss := st2.Stats(); ss.CorruptEvicted == 0 {
		t.Errorf("corruption not recorded: %+v", ss)
	}
}

// TestPartitionStageReuse checks stage-level caching: a partition
// computed by /v1/partition in one process is reused (from disk) by
// both a partition and a full synthesis in the next, without a
// response-level entry existing.
func TestPartitionStageReuse(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1})
	pr, src, err := svc1.Partition(context.Background(), libraryRequest(t, "Podium Timer 3"))
	if err != nil {
		t.Fatal(err)
	}
	if src.Cached() {
		t.Errorf("cold partition reported source %v", src)
	}
	// Same-process repeat: the store's memory tier serves it.
	if _, src, err = svc1.Partition(context.Background(), libraryRequest(t, "Podium Timer 3")); err != nil {
		t.Fatal(err)
	} else if src != SourceMemory {
		t.Errorf("warm partition served from %v, want memory", src)
	}
	st1.Close()

	st2 := openStore(t, dir)
	svc2 := New(Config{Store: st2})
	pr2, src, err := svc2.Partition(context.Background(), libraryRequest(t, "Podium Timer 3"))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Errorf("post-restart partition served from %v, want disk", src)
	}
	if pr2.FitChecks != pr.FitChecks || pr2.InnerAfter != pr.InnerAfter {
		t.Errorf("cached partition differs: %+v vs %+v", pr2, pr)
	}
	// A full synthesis of the same job adopts the cached partition
	// stage (observable via the store's stage-entry hit counters)
	// even though no response entry exists yet.
	before := st2.Stats()
	resp, src, err := svc2.Synthesize(context.Background(), libraryRequest(t, "Podium Timer 3"))
	if err != nil {
		t.Fatal(err)
	}
	if src.Cached() {
		t.Errorf("synthesis with only a stage entry reported %v", src)
	}
	if resp.FitChecks != pr.FitChecks {
		t.Errorf("synthesis did not adopt the cached partition (fitChecks %d vs %d)", resp.FitChecks, pr.FitChecks)
	}
	after := st2.Stats()
	if after.MemoryHits+after.DiskHits <= before.MemoryHits+before.DiskHits {
		t.Error("synthesis did not read the cached partition stage from the store")
	}
}

// TestStageLookupsPerRequest counts store lookups — one per Get,
// whichever tier answers — on a fresh disk store. A synthesize, delta
// or verify miss reads its response or verified key, the partitioned
// key and one merge key per partition (2 + k for k partitions), each
// exactly once; a verify hit reads the verified and partitioned keys.
func TestStageLookupsPerRequest(t *testing.T) {
	ctx := context.Background()
	lookups := func(st *store.Store) uint64 {
		s := st.Stats()
		return s.MemoryHits + s.DiskHits + s.RemoteHits + s.Misses
	}
	for _, tc := range []struct {
		design string
		k      int
	}{{"Podium Timer 3", 2}, {"Timed Passage", 5}} {
		t.Run(tc.design, func(t *testing.T) {
			d := designs.Lookup(tc.design).Build()
			fresh := func() (*Service, *store.Store) {
				st := openStore(t, t.TempDir())
				t.Cleanup(func() { st.Close() })
				return New(Config{Store: st}), st
			}
			check := func(what string, st *store.Store, want int, run func() error) {
				t.Helper()
				before := lookups(st)
				if err := run(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if n := lookups(st) - before; n != uint64(want) {
					t.Errorf("%s read %d store keys, want %d", what, n, want)
				}
			}

			svc, st := fresh()
			check("synthesize miss", st, 2+tc.k, func() error {
				resp, _, err := svc.Synthesize(ctx, Request{Design: d})
				if err == nil && len(resp.Partitions) != tc.k {
					t.Fatalf("%d partitions, want %d", len(resp.Partitions), tc.k)
				}
				return err
			})

			svc, st = fresh()
			check("delta miss", st, 2+tc.k, func() error {
				_, _, _, err := svc.Delta(ctx, Request{Design: d}, paramTweak(t, d, 1))
				return err
			})

			svc, st = fresh()
			job := VerifyJob{Request: Request{Design: d}, Steps: 8}
			verify := func() error { _, _, err := svc.Verify(ctx, job); return err }
			check("verify miss", st, 2+tc.k, verify)
			check("verify hit", st, 2, verify)
		})
	}
}

// TestStoreKeySeparatesStages guards the store key layout: the same
// job's partition artifact, per-partition merge artifacts, and
// response artifact are distinct entries.
func TestStoreKeySeparatesStages(t *testing.T) {
	st := openStore(t, t.TempDir())
	svc := New(Config{Store: st})
	resp, _, err := svc.Synthesize(context.Background(), libraryRequest(t, "Podium Timer 3"))
	if err != nil {
		t.Fatal(err)
	}
	// One partitioned-stage entry, one merge artifact per partition,
	// one response entry.
	want := 2 + len(resp.Partitions)
	if n := st.Len(); n != want {
		t.Errorf("store holds %d entries after one synthesis, want %d (partitioned + %d merges + response)",
			n, want, len(resp.Partitions))
	}
}

// TestBatchWithStore runs the batch API against a persistent store
// and checks a restarted service serves the whole batch from disk.
func TestBatchWithStore(t *testing.T) {
	dir := t.TempDir()
	names := []string{"Podium Timer 3", "Noise At Night Detector", "Two-Zone Security"}
	build := func() []Request {
		var reqs []Request
		for _, n := range names {
			reqs = append(reqs, Request{Design: designs.Lookup(n).Build()})
		}
		return reqs
	}

	st1 := openStore(t, dir)
	svc1 := New(Config{Store: st1, Workers: 2})
	before, err := svc1.SynthesizeAll(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2 := openStore(t, dir)
	svc2 := New(Config{Store: st2, Workers: 2})
	after, err := svc2.SynthesizeAll(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if before[i].SynthesizedEBK != after[i].SynthesizedEBK {
			t.Errorf("%s: post-restart batch response differs", names[i])
		}
	}
	if stats := svc2.Stats(); stats.DiskHits != uint64(len(names)) {
		t.Errorf("disk hits = %d, want %d", stats.DiskHits, len(names))
	}
}

// TestStageCacheOverNilStore checks that stage caching over no store
// is off: StageCacheOver(nil) is the nil cache, which the pipeline
// treats as "compute every stage".
func TestStageCacheOverNilStore(t *testing.T) {
	if c := StageCacheOver(nil); c != nil {
		t.Errorf("StageCacheOver(nil) = %T, want a nil cache", c)
	}
}

// TestPartitionCoalesces fires identical concurrent partition
// requests at a store-backed service: exactly one computation may run
// (one store put for the stage artifact); the rest coalesce and serve
// from the store.
func TestPartitionCoalesces(t *testing.T) {
	st := openStore(t, t.TempDir())
	svc := New(Config{Store: st})
	build := func() Request {
		return Request{Design: designs.Lookup("Two-Zone Security").Build()}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]*PartitionResponse, goroutines)
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resp, _, err := svc.Partition(context.Background(), build())
			if err != nil {
				errs <- err
				return
			}
			results[w] = resp
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 1; w < goroutines; w++ {
		if results[w].FitChecks != results[0].FitChecks || results[w].InnerAfter != results[0].InnerAfter {
			t.Errorf("goroutine %d saw a different partitioning", w)
		}
	}
	if ss := st.Stats(); ss.Puts != 1 {
		t.Errorf("store puts = %d, want exactly 1 (coalesced computation)", ss.Puts)
	}
}

// TestMemoryOnlyService: a service given no store runs over a
// memory-only one and gets the caches a disk-backed service has —
// repeated partition and verify requests are served from the memory
// tier, a design resolves by fingerprint, and a checkpointed stream
// resumes — while the shared-origin routes, which serve framed disk
// entries, answer 404.
func TestMemoryOnlyService(t *testing.T) {
	_, ts := newTestServer(t)

	for _, tc := range []struct {
		route string
		body  any
	}{
		{"/v1/partition", JSONRequest{Design: designJSON(t, "Podium Timer 3")}},
		{"/v1/verify", verifyReq(t, "Night Lamp Controller")},
	} {
		resp, cold := postJSON(t, ts.URL+tc.route, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.route, resp.StatusCode, cold)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s: cold X-Cache = %q, want miss", tc.route, got)
		}
		resp, warm := postJSON(t, ts.URL+tc.route, tc.body)
		if got := resp.Header.Get("X-Cache"); got != "memory" {
			t.Errorf("%s: repeated X-Cache = %q, want memory", tc.route, got)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: memory-served body differs from cold body", tc.route)
		}
	}

	// Design by fingerprint: an inline simulate request stores the
	// design, and the same run by content address is identical.
	raw, _ := chainDesign(t)
	script := toggleScript(250, 3750)
	sreq := SimulateJSONRequest{Design: raw, Script: script, Until: 2000}
	resp, inline := postJSON(t, ts.URL+"/v1/simulate", sreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, inline)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(inline, &sr); err != nil {
		t.Fatal(err)
	}
	resp, byFP := postJSON(t, ts.URL+"/v1/simulate", SimulateJSONRequest{Fingerprint: sr.DesignHash, Script: script, Until: 2000})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(inline, byFP) {
		t.Errorf("simulate by fingerprint: status %d, body differs from inline: %s", resp.StatusCode, byFP)
	}

	// Resume: the checkpoints of a streamed run stay in memory, and a
	// resumed run continues the reference trace exactly.
	sreq.Until = 4000
	sresp := streamPost(t, ts.URL+"/v1/simulate?stream=ndjson&checkpointEvery=1000", sreq)
	ref, recs := readStream(t, sresp.Body)
	sresp.Body.Close()
	for _, ck := range recsOfType(recs, "checkpoint") {
		if ck.Stored == nil || !*ck.Stored {
			t.Errorf("checkpoint at %d not stored", ck.Cycle)
		}
	}
	rresp := streamPost(t, ts.URL+"/v1/simulate/resume", ResumeJSONRequest{Fingerprint: sr.DesignHash, Cycle: 2000, Until: 4000, Script: script})
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(rresp.Body)
		t.Fatalf("resume: status %d: %s", rresp.StatusCode, body)
	}
	suffix, rrecs := readStream(t, rresp.Body)
	if rrecs[0].Type != "resumed" || rrecs[0].Cycle != 2000 {
		t.Fatalf("resume record = %+v, want resumed@2000", rrecs[0])
	}
	var want []sim.Change
	for _, c := range ref {
		if c.Time > 2000 {
			want = append(want, c)
		}
	}
	if !reflect.DeepEqual(suffix, want) {
		t.Errorf("resumed trace differs from the reference after cycle 2000:\nresumed: %v\nref:     %v", suffix, want)
	}

	id := strings.Repeat("ab", 32)
	if resp, err := http.Get(ts.URL + "/v1/store/" + id); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/store/{id} on a memory-only service: status %d, want 404", resp.StatusCode)
	}
}

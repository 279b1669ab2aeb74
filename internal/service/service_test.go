package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/randgen"
	"repro/internal/store"
	"repro/internal/synth"
)

func libraryRequest(t *testing.T, name string) Request {
	t.Helper()
	e := designs.Lookup(name)
	if e == nil {
		t.Fatalf("unknown library design %q", name)
	}
	return Request{Design: e.Build()}
}

func TestSynthesizeCacheSemantics(t *testing.T) {
	s := New(Config{})
	req := libraryRequest(t, "Podium Timer 3")

	cold, src, err := s.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if src.Cached() {
		t.Error("first request reported as cache hit")
	}
	warm, src, err := s.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceMemory {
		t.Errorf("second identical request served from %v, want memory", src)
	}

	// Byte-identical, not merely equal.
	coldRaw, _ := json.Marshal(cold)
	warmRaw, _ := json.Marshal(warm)
	if string(coldRaw) != string(warmRaw) {
		t.Errorf("cached response differs from cold response:\n%s\nvs\n%s", coldRaw, warmRaw)
	}

	// A different same-structure build of the design also hits: the key
	// is the content hash, not the pointer.
	req2 := libraryRequest(t, "Podium Timer 3")
	if _, src, _ := s.Synthesize(context.Background(), req2); !src.Cached() {
		t.Error("identical content from a fresh build missed the cache")
	}

	// Changing any knob misses.
	for _, alt := range []Request{
		{Design: req.Design, Algorithm: "aggregation"},
		{Design: req.Design, PaperMode: true},
	} {
		if _, src, err := s.Synthesize(context.Background(), alt); err != nil {
			t.Fatal(err)
		} else if src.Cached() {
			t.Errorf("request with different knobs (%+v) hit the cache", alt)
		}
	}

	st := s.Stats()
	if st.Requests != 5 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 5 requests / 2 hits", st)
	}
}

func TestSynthesizeMatchesSynth(t *testing.T) {
	s := New(Config{})
	for _, name := range []string{"Noise At Night Detector", "Two-Zone Security"} {
		req := libraryRequest(t, name)
		resp, _, err := s.Synthesize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := synth.Synthesize(designs.Lookup(name).Build(), synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.InnerAfter != out.InnerBlocksAfter() {
			t.Errorf("%s: service cost %d, direct %d", name, resp.InnerAfter, out.InnerBlocksAfter())
		}
		if resp.SynthesizedEBK != netlist.Serialize(out.Synthesized) {
			t.Errorf("%s: service .ebk differs from direct synthesis", name)
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	s := New(Config{})
	req := libraryRequest(t, "Podium Timer 3")
	req.Algorithm = "no-such-algorithm"
	if _, _, err := s.Synthesize(context.Background(), req); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}

	// Cancelled contexts abort cold synthesis.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Synthesize(ctx, libraryRequest(t, "Timed Passage")); err == nil {
		t.Error("cancelled context did not abort synthesis")
	}
}

func TestSynthesizeAllMatchesIndividual(t *testing.T) {
	s := New(Config{Workers: 4})
	var reqs []Request
	var names []string
	for _, e := range designs.Library() {
		reqs = append(reqs, Request{Design: e.Build()})
		names = append(names, e.Name)
	}
	// Duplicate a design inside the batch: it must coalesce or hit, and
	// return the same bytes.
	reqs = append(reqs, Request{Design: designs.Lookup("Timed Passage").Build()})
	names = append(names, "Timed Passage")

	batch, err := s.SynthesizeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(batch), len(reqs))
	}

	fresh := New(Config{})
	for i, name := range names {
		want, _, err := fresh.Synthesize(context.Background(), Request{Design: designs.Lookup(name).Build()})
		if err != nil {
			t.Fatal(err)
		}
		gotRaw, _ := json.Marshal(batch[i])
		wantRaw, _ := json.Marshal(want)
		if string(gotRaw) != string(wantRaw) {
			t.Errorf("batch response %d (%s) differs from individual synthesis", i, name)
		}
	}
}

// TestSynthesizeConcurrent hammers one service from many goroutines
// with a mix of identical and distinct requests, asserting every
// response is byte-identical to the sequential baseline (run with
// -race in CI).
func TestSynthesizeConcurrent(t *testing.T) {
	names := []string{"Podium Timer 3", "Noise At Night Detector", "Two-Zone Security", "Timed Passage"}
	baseline := map[string]string{}
	seq := New(Config{})
	for _, name := range names {
		resp, _, err := seq.Synthesize(context.Background(), Request{Design: designs.Lookup(name).Build()})
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(resp)
		baseline[name] = string(raw)
	}

	// A memory-only store too small for the four designs' artifacts:
	// evictions under load.
	const memBudget = 16 << 10
	mem, err := store.Open("", store.Options{MemBytes: memBudget})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: mem})
	const goroutines = 16
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := names[(w+r)%len(names)]
				resp, _, err := s.Synthesize(context.Background(), Request{Design: designs.Lookup(name).Build()})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				raw, _ := json.Marshal(resp)
				if string(raw) != baseline[name] {
					errs <- fmt.Errorf("%s: concurrent response differs from baseline", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Requests != goroutines*rounds {
		t.Errorf("requests = %d, want %d", st.Requests, goroutines*rounds)
	}
	if st.Store.MemBytesUsed > memBudget {
		t.Errorf("memory tier grew past its budget: %d bytes", st.Store.MemBytesUsed)
	}
	if st.CacheMisses <= uint64(len(names)) {
		t.Errorf("cache misses = %d: the working set never outgrew the memory tier", st.CacheMisses)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}

// TestSingleFlightCoalesces launches identical cold requests
// concurrently and checks only one synthesis ran (the rest coalesced
// onto it or hit the cache it filled).
func TestSingleFlightCoalesces(t *testing.T) {
	d, err := randgen.Generate(randgen.Params{InnerBlocks: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	const goroutines = 8
	var wg sync.WaitGroup
	raws := make([]string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resp, _, err := s.Synthesize(context.Background(), Request{Design: d})
			if err != nil {
				t.Errorf("goroutine %d: %v", w, err)
				return
			}
			raw, _ := json.Marshal(resp)
			raws[w] = string(raw)
		}(w)
	}
	wg.Wait()
	for w := 1; w < goroutines; w++ {
		if raws[w] != raws[0] {
			t.Errorf("goroutine %d saw different bytes", w)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 (single flight)", st.CacheMisses)
	}
	if st.CacheHits+st.Coalesced != goroutines-1 {
		t.Errorf("hits+coalesced = %d, want %d", st.CacheHits+st.Coalesced, goroutines-1)
	}
}

func TestPartitionOnly(t *testing.T) {
	s := New(Config{})
	resp, src, err := s.Partition(context.Background(), libraryRequest(t, "Podium Timer 3"))
	if err != nil {
		t.Fatal(err)
	}
	if src.Cached() {
		t.Errorf("first partition request reported source %v", src)
	}
	if resp.InnerBefore != 8 || resp.InnerAfter != 3 {
		t.Errorf("partition summary = %d -> %d, want 8 -> 3", resp.InnerBefore, resp.InnerAfter)
	}
	if len(resp.Partitions) == 0 || resp.DesignHash == "" {
		t.Errorf("partition response incomplete: %+v", resp)
	}
}

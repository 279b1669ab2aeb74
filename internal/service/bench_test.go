package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/randgen"
	"repro/internal/store"
)

// benchDesign builds the workload for the cache benchmarks: a random
// design large enough that cold synthesis visibly dominates a cache
// lookup.
func benchDesign(tb testing.TB) *netlist.Design {
	tb.Helper()
	d, err := randgen.Generate(randgen.Params{InnerBlocks: 120, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkServiceCold measures a full cold synthesis per iteration
// (fresh cache every time).
func BenchmarkServiceCold(b *testing.B) {
	d := benchDesign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		if _, _, err := s.Synthesize(context.Background(), Request{Design: d}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceWarm measures a cache hit per iteration: the content
// fingerprint, a store memory-tier lookup and the response decode.
func BenchmarkServiceWarm(b *testing.B) {
	d := benchDesign(b)
	s := New(Config{})
	if _, _, err := s.Synthesize(context.Background(), Request{Design: d}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, src, err := s.Synthesize(context.Background(), Request{Design: d})
		if err != nil {
			b.Fatal(err)
		}
		if src != SourceMemory {
			b.Fatalf("warm iteration served from %v, want memory", src)
		}
	}
}

// BenchmarkServiceDiskWarm measures a restart-warm hit per iteration:
// each iteration runs against a fresh Service sharing one populated
// store whose memory tier is disabled, so the hit pays the full disk
// path — file read, checksum verification, response decode.
func BenchmarkServiceDiskWarm(b *testing.B) {
	d := benchDesign(b)
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{MemBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	seed := New(Config{Store: st})
	if _, _, err := seed.Synthesize(context.Background(), Request{Design: d}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{Store: st})
		_, src, err := s.Synthesize(context.Background(), Request{Design: d})
		if err != nil {
			b.Fatal(err)
		}
		if src != SourceDisk {
			b.Fatalf("restart-warm iteration served from %v, want disk", src)
		}
	}
}

// BenchmarkServiceRemoteWarm measures a fleet-warm hit per iteration:
// each iteration runs against a fresh Service over a fresh, empty
// local store whose remote tier points at a shared populated origin —
// so the hit pays the full remote path: HTTP round trip, framing and
// checksum verification, local write-through, response decode. Compare
// with BenchmarkServiceCold (what the fleet cache avoids) and
// BenchmarkServiceDiskWarm (the next request's cost, once written
// through).
func BenchmarkServiceRemoteWarm(b *testing.B) {
	d := benchDesign(b)
	origin, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	seed := New(Config{Store: origin})
	if _, _, err := seed.Synthesize(context.Background(), Request{Design: d}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(origin.RemoteHandler())
	defer ts.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir(), store.Options{Remote: store.NewRemote(ts.URL, store.RemoteOptions{})})
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Store: st})
		b.StartTimer()
		_, src, err := s.Synthesize(context.Background(), Request{Design: d})
		if err != nil {
			b.Fatal(err)
		}
		if src != SourceRemote {
			b.Fatalf("fleet-warm iteration served from %v, want remote", src)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// TestWarmCacheSpeedup asserts PR 2's acceptance criterion: a warm
// memory hit is at least 10x faster than a cold synthesis. Each round
// compares medians of several runs; the best round's ratio is asserted
// (bench.BestRatio), so a loaded CI machine's noise in one round
// cannot fail a floor that holds in a clean one.
func TestWarmCacheSpeedup(t *testing.T) {
	d := benchDesign(t)
	const reps = 3

	ratio := bench.BestRatio(bench.SpeedupRounds, func() float64 {
		cold := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			s := New(Config{})
			start := time.Now()
			if _, _, err := s.Synthesize(context.Background(), Request{Design: d}); err != nil {
				t.Fatal(err)
			}
			cold = append(cold, time.Since(start))
		}

		s := New(Config{})
		if _, _, err := s.Synthesize(context.Background(), Request{Design: d}); err != nil {
			t.Fatal(err)
		}
		warm := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			start := time.Now()
			_, src, err := s.Synthesize(context.Background(), Request{Design: d})
			if err != nil {
				t.Fatal(err)
			}
			if !src.Cached() {
				t.Fatal("warm run missed the cache")
			}
			warm = append(warm, time.Since(start))
		}

		mc, mw := bench.MedianDuration(cold), bench.MedianDuration(warm)
		t.Logf("cold median %v, warm median %v (%.1fx)", mc, mw, float64(mc)/float64(mw))
		return float64(mc) / float64(mw)
	})
	if ratio < 10 {
		t.Errorf("warm cache hit not >=10x faster: best round %.1fx", ratio)
	}
}

// TestRestartWarmSpeedup asserts PR 3's acceptance criterion: a
// restart-warm hit — served from the disk store by a process with a
// cold memory tier — is at least 5x faster than a cold synthesis. The
// best of several rounds is asserted (bench.BestRatio) to stay robust
// on loaded CI machines.
func TestRestartWarmSpeedup(t *testing.T) {
	d := benchDesign(t)
	const reps = 3

	// Populate the store once, then measure fresh services over it
	// (memory tier off) hitting the disk path.
	st, err := store.Open(t.TempDir(), store.Options{MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	seed := New(Config{Store: st})
	if _, _, err := seed.Synthesize(context.Background(), Request{Design: d}); err != nil {
		t.Fatal(err)
	}

	ratio := bench.BestRatio(bench.SpeedupRounds, func() float64 {
		cold := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			s := New(Config{})
			start := time.Now()
			if _, _, err := s.Synthesize(context.Background(), Request{Design: d}); err != nil {
				t.Fatal(err)
			}
			cold = append(cold, time.Since(start))
		}

		warm := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			s := New(Config{Store: st})
			start := time.Now()
			_, src, err := s.Synthesize(context.Background(), Request{Design: d})
			if err != nil {
				t.Fatal(err)
			}
			if src != SourceDisk {
				t.Fatalf("restart-warm run served from %v, want disk", src)
			}
			warm = append(warm, time.Since(start))
		}

		mc, mw := bench.MedianDuration(cold), bench.MedianDuration(warm)
		t.Logf("cold median %v, disk-warm median %v (%.1fx)", mc, mw, float64(mc)/float64(mw))
		return float64(mc) / float64(mw)
	})
	if ratio < 5 {
		t.Errorf("restart-warm hit not >=5x faster: best round %.1fx", ratio)
	}
}

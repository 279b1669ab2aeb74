package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/netlist"
	"repro/internal/randgen"
	"repro/internal/sim"
	"repro/internal/store"
)

// waitGoroutines waits until no more than n goroutines run: the
// timer and context goroutines a finished request leaves exit on
// their own shortly after it returns.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines still run, %d before the requests", runtime.NumGoroutine(), n)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBoundedCompute: work that no request waits for any more stops.
// The optimal search of a 45-block random design runs for more than
// 10 s; a synthesize, verify or partition request for it under a
// 200 ms deadline returns within 100 ms of that deadline, with or
// without the race detector, with context.DeadlineExceeded, and leaves
// no flight and no goroutine behind.
func TestBoundedCompute(t *testing.T) {
	d, err := randgen.Generate(randgen.Params{InnerBlocks: 45, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Design: d, Algorithm: "exhaustive"}
	s := New(Config{})
	baseline := runtime.NumGoroutine()

	for _, tc := range []struct {
		route string
		call  func(context.Context) error
	}{
		{"synthesize", func(ctx context.Context) error {
			_, _, err := s.Synthesize(ctx, req)
			return err
		}},
		{"verify", func(ctx context.Context) error {
			_, _, err := s.Verify(ctx, VerifyJob{Request: req, Steps: 10})
			return err
		}},
		{"partition", func(ctx context.Context) error {
			_, _, err := s.Partition(ctx, req)
			return err
		}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		start := time.Now()
		err := tc.call(ctx)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", tc.route, err)
		}
		if slack := 100 * time.Millisecond; elapsed > 200*time.Millisecond+slack {
			t.Errorf("%s returned after %v, want within %v of its 200ms deadline", tc.route, elapsed, slack)
		}
	}
	for group, n := range map[string]int{
		"synthesize": s.synthGroup.Inflight(),
		"partition":  s.partGroup.Inflight(),
		"verify":     s.verifyGroup.Inflight(),
		"simulate":   s.simGroup.Inflight(),
	} {
		if n != 0 {
			t.Errorf("%s group: %d flights left", group, n)
		}
	}
	waitGoroutines(t, baseline)
}

// heavyProgram is a merged-style behavior program whose every
// evaluation recomputes 24 state variables, so a simulation over it
// spends its time evaluating blocks rather than queueing stimuli.
func heavyProgram(t *testing.T) *behavior.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("input a; output y;\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, "state s%d = %d;\n", i, i+1)
	}
	b.WriteString("run {\ns0 = s0 + a + 1;\n")
	for i := 1; i < 24; i++ {
		fmt.Fprintf(&b, "s%d = (s%d + s%d) ^ (s%d >> 1);\n", i, i, i-1, i)
	}
	b.WriteString("y = !a;\n}\n")
	prog, err := behavior.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestBoundedSimulate: a buffered simulation whose only caller's
// deadline expires stops with it, even with an event budget raised far
// past what the run would use.
func TestBoundedSimulate(t *testing.T) {
	prog := heavyProgram(t)
	d := netlist.NewDesign("heavy chain", block.Standard())
	d.MustAddBlock("s", "Button")
	prev := "s"
	for i := 0; i < 150; i++ {
		name := fmt.Sprintf("n%d", i)
		d.MustAddBlock(name, "Not")
		d.MustConnect(prev, "y", name, "a")
		if err := d.SetProgram(d.Graph().Lookup(name), prog); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	d.MustAddBlock("led", "LED")
	d.MustConnect(prev, "y", "led", "a")
	stimuli := make([]sim.Stimulus, 5_000)
	for i := range stimuli {
		stimuli[i] = sim.Stimulus{Time: int64(i+1) * 10, Block: "s", Value: int64((i + 1) % 2)}
	}
	s := New(Config{})
	baseline := runtime.NumGoroutine()

	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err := s.Simulate(ctx, SimulateJob{Design: d, Stimuli: stimuli, Config: sim.Config{MaxEvents: 1 << 40}})
	elapsed := time.Since(start)
	if slack := 100 * time.Millisecond; elapsed > deadline+slack {
		t.Errorf("simulate returned after %v, want within %v of its %v deadline", elapsed, slack, deadline)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := s.simGroup.Inflight(); n != 0 {
		t.Errorf("%d simulate flights left", n)
	}
	waitGoroutines(t, baseline)
}

// parkedService is a cold, disk-backed service whose every store
// lookup waits until release is closed (gateBackend), so a flight's
// winner stays parked inside its computation until the test lets it
// go.
func parkedService(t *testing.T) (*Service, chan struct{}) {
	t.Helper()
	gate := gateBackend{release: make(chan struct{})}
	st, err := store.Open(t.TempDir(), store.Options{Remote: gate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return New(Config{Store: st}), gate.release
}

// TestCoalescedCallerLeaves: one of two coalesced callers leaving
// never fails the other. Whichever of the two leaves — the one
// running the computation or the one waiting for it — the one that
// stays gets a response byte-identical to a cold one, computed once.
func TestCoalescedCallerLeaves(t *testing.T) {
	req := libraryRequest(t, "Timed Passage")
	cold, _, err := New(Config{}).Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(cold)

	for _, leaver := range []int{0, 1} {
		t.Run(fmt.Sprintf("caller%d-leaves", leaver), func(t *testing.T) {
			svc, release := parkedService(t)
			waiting := make(chan struct{}, 2)
			type result struct {
				resp *Response
				err  error
			}
			results := [2]chan result{make(chan result, 1), make(chan result, 1)}
			cancels := [2]context.CancelFunc{}
			for i := range results {
				ctx, cancel := context.WithCancel(context.Background())
				cancels[i] = cancel
				defer cancel()
				wctx := &waitingCtx{Context: ctx, waiting: waiting}
				go func() {
					resp, _, err := svc.Synthesize(wctx, req)
					results[i] <- result{resp, err}
				}()
				// Caller 0 is counted in first, so it runs the
				// computation and caller 1 waits for it.
				select {
				case <-waiting:
				case <-time.After(10 * time.Second):
					t.Fatalf("caller %d never joined the flight", i)
				}
			}

			cancels[leaver]()
			if leaver == 1 {
				if r := <-results[1]; !errors.Is(r.err, context.Canceled) {
					t.Fatalf("waiter that left returned %v, want context.Canceled", r.err)
				}
			}
			close(release)
			stayer := results[1-leaver]
			r := <-stayer
			if r.err != nil {
				t.Fatalf("caller that stayed failed: %v", r.err)
			}
			if got, _ := json.Marshal(r.resp); !bytes.Equal(got, want) {
				t.Error("caller that stayed got a response that differs from a cold one")
			}
			if leaver == 0 {
				<-results[0]
			}
			if ss := svc.Stats(); ss.CacheMisses != 1 {
				t.Errorf("cache misses = %d, want 1", ss.CacheMisses)
			}
		})
	}
}

// TestPartitionWaiterReportsFlight: a partition request that coalesces
// onto a running flight reports that flight's tier — a miss, since it
// computed the result — and counts as coalesced, like every other
// coalesced route.
func TestPartitionWaiterReportsFlight(t *testing.T) {
	svc, release := parkedService(t)
	req := libraryRequest(t, "Two-Zone Security")
	waiting := make(chan struct{}, 2)
	srcs := [2]chan Source{make(chan Source, 1), make(chan Source, 1)}
	for i := range srcs {
		ctx := &waitingCtx{Context: context.Background(), waiting: waiting}
		go func() {
			_, src, err := svc.Partition(ctx, req)
			if err != nil {
				t.Errorf("partition %d: %v", i, err)
			}
			srcs[i] <- src
		}()
		select {
		case <-waiting:
		case <-time.After(10 * time.Second):
			t.Fatalf("partition %d never joined the flight", i)
		}
	}
	close(release)
	for i := range srcs {
		if src := <-srcs[i]; src != SourceMiss {
			t.Errorf("partition %d: source %v, want the flight's miss", i, src)
		}
	}
	if ss := svc.Stats(); ss.CacheMisses != 1 || ss.Coalesced != 1 {
		t.Errorf("misses=%d coalesced=%d, want 1 and 1", ss.CacheMisses, ss.Coalesced)
	}
}

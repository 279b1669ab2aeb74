package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCancelledWaiterUnblocks is the regression test for the
// service's pre-consolidation flightGroup bug: waiters blocked on a
// flight's done channel with no context, so one hung synthesis wedged
// every coalesced request even after its client disconnected. A
// cancelled waiter must return promptly with the context error while
// the winner keeps running undisturbed.
func TestCancelledWaiterUnblocks(t *testing.T) {
	var g Group[string]
	started := make(chan struct{})
	release := make(chan struct{})

	winner := make(chan string, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			<-release
			return "computed", nil
		})
		winner <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, coalesced, err := g.Do(ctx, "k", func(context.Context) (string, error) {
			t.Error("waiter ran the computation itself")
			return "", nil
		})
		if !coalesced {
			t.Error("second call did not join the in-flight computation")
		}
		waiterErr <- err
	}()

	// Give the waiter time to join the flight, then cancel its
	// context while the winner is still hung.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter stayed blocked on the hung flight (flightGroup regression)")
	}

	// The winner is unaffected by the waiter's departure.
	close(release)
	if v := <-winner; v != "computed" {
		t.Fatalf("winner returned %q", v)
	}
}

// TestSharesResult pins the coalescing contract: concurrent same-key
// calls share one computation's value and error; exactly one caller
// is the winner.
func TestSharesResult(t *testing.T) {
	var g Group[int]
	var mu sync.Mutex
	runs := 0
	gate := make(chan struct{})

	const callers = 6
	var wg sync.WaitGroup
	vals := make([]int, callers)
	joined := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], joined[i], _ = g.Do(context.Background(), "same", func(context.Context) (int, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				<-gate
				return 7, nil
			})
		}(i)
	}
	// Wait until one flight is registered, then release it.
	for g.Inflight() != 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if runs != 1 {
		t.Errorf("computation ran %d times, want 1", runs)
	}
	winners := 0
	for i := 0; i < callers; i++ {
		if vals[i] != 7 {
			t.Errorf("caller %d got %d, want 7", i, vals[i])
		}
		if !joined[i] {
			winners++
		}
	}
	if winners != 1 {
		t.Errorf("%d callers report being the winner, want 1", winners)
	}
	if g.Inflight() != 0 {
		t.Errorf("%d flights left registered after completion", g.Inflight())
	}
}

// TestErrorsShared: a failing winner propagates its error to every
// waiter; the key is reusable afterwards.
func TestErrorsShared(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	if _, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("winner error = %v", err)
	}
	if v, joined, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil }); v != 3 || joined || err != nil {
		t.Fatalf("key not reusable after a failed flight: %d, %v, %v", v, joined, err)
	}
}

// TestPanicReleasesKey: a panicking winner must not wedge the key, and
// waiters see ErrPanicked.
func TestPanicReleasesKey(t *testing.T) {
	var g Group[int]
	entered := make(chan struct{})
	proceed := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		g.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(entered)
			<-proceed
			panic("kaboom")
		})
	}()
	<-entered
	go func() {
		_, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, nil })
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(proceed)
	select {
	case err := <-waiterDone:
		// The waiter either joined the panicked flight (ErrPanicked)
		// or arrived after cleanup and computed cleanly.
		if err != nil && !errors.Is(err, ErrPanicked) {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panicking winner wedged the key")
	}
	if g.Inflight() != 0 {
		t.Errorf("%d flights left after panic", g.Inflight())
	}
}

// TestDistinctKeysRunIndependently: a stalled flight on one key must
// not delay computations under other keys.
func TestDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	release := make(chan struct{})
	go g.Do(context.Background(), "slow", func(context.Context) (int, error) {
		close(started)
		<-release
		return 0, nil
	})
	<-started

	done := make(chan int, 1)
	go func() {
		v, shared, err := g.Do(context.Background(), "fast", func(context.Context) (int, error) { return 42, nil })
		if shared || err != nil {
			t.Errorf("fast key: shared=%v err=%v, want a fresh successful flight", shared, err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("fast key returned %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("computation under a distinct key was blocked by an unrelated in-flight key")
	}
	close(release)
}

// TestNoCachingAcrossFlights: a key is forgotten the moment its
// flight completes, so sequential calls recompute.
func TestNoCachingAcrossFlights(t *testing.T) {
	var g Group[int]
	runs := 0
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			runs++
			return runs, nil
		})
		if shared || err != nil || v != i+1 {
			t.Fatalf("call %d: v=%d shared=%v err=%v", i, v, shared, err)
		}
	}
	if runs != 3 {
		t.Fatalf("fn ran %d times, want 3 (no caching)", runs)
	}
}

// TestWinnerIgnoresOwnCancelledContext: the caller that starts the
// computation runs it inline even if its own context has already
// ended. The computation's context is then cancelled, since no caller
// is left, but a computation that succeeds anyway returns its value.
func TestWinnerIgnoresOwnCancelledContext(t *testing.T) {
	var g Group[string]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, shared, err := g.Do(ctx, "k", func(context.Context) (string, error) { return "ran", nil })
	if shared || err != nil || v != "ran" {
		t.Fatalf("winner with cancelled ctx: v=%q shared=%v err=%v; want the computation to run", v, shared, err)
	}
}

// callersOf reports how many callers of key's flight are still
// counted in, or -1 when no flight holds the key.
func callersOf[T any](g *Group[T], key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.inflight[key]; ok {
		return c.callers
	}
	return -1
}

// waitCallers waits until key's flight counts n callers in.
func waitCallers[T any](t *testing.T, g *Group[T], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for callersOf(g, key) != n {
		if time.Now().After(deadline) {
			t.Fatalf("flight %q counts %d callers, want %d", key, callersOf(g, key), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLastCallerOutCancels pins when coalesced work stops: the first
// caller leaving while another still waits does not cancel the
// computation, the last one leaving does, promptly, and a caller
// arriving after that starts a fresh flight instead of joining the one
// being cancelled.
func TestLastCallerOutCancels(t *testing.T) {
	var g Group[string]
	firstCtx, cancelFirst := context.WithCancel(context.Background())
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelFirst()
	defer cancelWaiter()

	started := make(chan context.Context, 1)
	cancelled := make(chan struct{})
	finish := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := g.Do(firstCtx, "k", func(ctx context.Context) (string, error) {
			started <- ctx
			select {
			case <-ctx.Done():
				close(cancelled)
			case <-finish:
			}
			<-finish
			return "", ctx.Err()
		})
		first <- err
	}()
	fnCtx := <-started

	waiter := make(chan error, 1)
	go func() {
		_, joined, err := g.Do(waiterCtx, "k", func(context.Context) (string, error) {
			t.Error("waiter ran the computation itself")
			return "", nil
		})
		if !joined {
			t.Error("second call did not join the in-flight computation")
		}
		waiter <- err
	}()
	waitCallers(t, &g, "k", 2)

	cancelFirst()
	waitCallers(t, &g, "k", 1)
	if err := fnCtx.Err(); err != nil {
		t.Fatalf("first caller leaving cancelled the computation another caller waits for: %v", err)
	}

	left := time.Now()
	cancelWaiter()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
		if d := time.Since(left); d > time.Second {
			t.Errorf("computation saw its cancellation %v after the last caller left", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("last caller leaving did not cancel the computation")
	}

	// The cancelled computation has not returned yet; a new caller must
	// not join it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, joined, err := g.Do(ctx, "k", func(context.Context) (string, error) { return "fresh", nil })
	if joined || err != nil || v != "fresh" {
		t.Fatalf("call after the last caller left: v=%q joined=%v err=%v, want a fresh flight", v, joined, err)
	}
	close(finish)
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller returned %v, want its own context.Canceled", err)
	}
	if n := g.Inflight(); n != 0 {
		t.Errorf("%d flights left registered", n)
	}
}

// TestComputationKeepsCallerValues: the computation's context carries
// the first caller's request-scoped values.
func TestComputationKeepsCallerValues(t *testing.T) {
	type key struct{}
	var g Group[string]
	ctx := context.WithValue(context.Background(), key{}, "request-7")
	v, _, err := g.Do(ctx, "k", func(ctx context.Context) (string, error) {
		s, _ := ctx.Value(key{}).(string)
		return s, nil
	})
	if err != nil || v != "request-7" {
		t.Fatalf("computation saw value %q (err %v), want the first caller's %q", v, err, "request-7")
	}
}

// TestLoneCallerDeadline: a lone caller's deadline stops the
// computation, and the caller reads its own deadline, not the
// computation's cancellation.
func TestLoneCallerDeadline(t *testing.T) {
	var g Group[int]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := g.Do(ctx, "k", func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("search: %w", ctx.Err())
		case <-time.After(5 * time.Second):
			return 0, errors.New("search: never cancelled")
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lone caller past its deadline returned %v, want context.DeadlineExceeded", err)
	}
	if n := g.Inflight(); n != 0 {
		t.Errorf("%d flights left registered", n)
	}
}

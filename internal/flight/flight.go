// Package flight is the repo's one single-flight implementation: for
// a given key, at most one computation runs at a time; concurrent
// callers for the same key wait for it and share its result (value
// and error alike). A Group has no cache — a key is forgotten the
// moment its flight completes — so it suits computations whose
// results are cached elsewhere (the artifact store) or not at all
// (simulation traces, remote fetches).
//
// internal/service coalesces synthesis, partitioning, simulation and
// verification requests on it; internal/store single-flights
// remote-origin fetches on it. Both used to carry their own copy of
// this pattern, and the service kept its own rules for when coalesced
// work stops; additions belong here.
package flight

import (
	"context"
	"errors"
	"sync"
)

// Group coalesces concurrent calls by key. The zero value is ready to
// use; Groups must not be copied after first use.
type Group[T any] struct {
	mu       sync.Mutex
	inflight map[string]*call[T]
}

type call[T any] struct {
	done chan struct{}
	val  T
	err  error
	// callers counts the callers whose own context has not ended,
	// guarded by Group.mu; cancel ends the computation once it is 0.
	callers int
	cancel  context.CancelFunc
}

// ErrPanicked is what coalesced waiters receive when the caller that
// ran the computation panicked instead of returning.
var ErrPanicked = errors.New("flight: computation aborted by a panic in a concurrent identical caller")

// Do returns the result for key, computing it with fn unless an
// identical call is already in flight. The bool reports whether this
// call joined another's flight.
//
// fn runs in the first caller's goroutine under a context that keeps
// that caller's values and is cancelled once every caller, the first
// included, has had its own context end. That last caller also retires
// the key, so a later call starts a fresh flight. A waiter whose
// context ends returns at once, and a caller whose context has ended
// when the computation fails returns its own context error.
func (g *Group[T]) Do(ctx context.Context, key string, fn func(context.Context) (T, error)) (T, bool, error) {
	var zero T
	leaveWhenDone := func(c *call[T]) func() bool {
		return context.AfterFunc(ctx, func() {
			g.mu.Lock()
			c.callers--
			last := c.callers == 0
			if last && g.inflight[key] == c {
				delete(g.inflight, key)
			}
			g.mu.Unlock()
			if last {
				c.cancel()
			}
		})
	}
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = map[string]*call[T]{}
	}
	if c, ok := g.inflight[key]; ok {
		c.callers++
		g.mu.Unlock()
		defer leaveWhenDone(c)()
		select {
		case <-c.done:
			if c.err != nil && ctx.Err() != nil {
				return zero, true, ctx.Err()
			}
			return c.val, true, c.err
		case <-ctx.Done():
			return zero, true, ctx.Err()
		}
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call[T]{done: make(chan struct{}), callers: 1, cancel: cancel}
	g.inflight[key] = c
	g.mu.Unlock()
	defer leaveWhenDone(c)()

	// Cleanup runs deferred so a panicking fn (recovered upstream,
	// e.g. by net/http) cannot leave the key wedged with an unclosed
	// channel; the panic still propagates, and waiters see
	// ErrPanicked.
	completed := false
	defer func() {
		cancel()
		if !completed {
			c.err = ErrPanicked
		}
		g.mu.Lock()
		if g.inflight[key] == c {
			delete(g.inflight, key)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn(fctx)
	completed = true
	if c.err != nil && ctx.Err() != nil {
		return zero, false, ctx.Err()
	}
	return c.val, false, c.err
}

// Inflight reports the number of keys currently being computed
// (test and metrics hook).
func (g *Group[T]) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight)
}

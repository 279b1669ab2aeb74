// Package flight is the repo's one single-flight implementation: for
// a given key, at most one computation runs at a time; concurrent
// callers for the same key wait for it and share its result (value
// and error alike). A Group has no cache — a key is forgotten the
// moment its flight completes — so it suits computations whose
// results are cached elsewhere (the artifact store) or not at all
// (simulation traces, remote fetches).
//
// internal/service coalesces synthesis, simulation and verification
// requests on it; internal/store single-flights remote-origin fetches
// on it. Both used to carry their own copy of this pattern; behavior
// differences between copies were a standing bug risk (one of them
// ignored waiter cancellation), so additions belong here.
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
}

// ErrPanicked is what coalesced waiters receive when the caller that
// ran the computation panicked instead of returning.
var ErrPanicked = errors.New("flight: computation aborted by a panic in a concurrent identical caller")

// Do returns the result for key, computing it with fn unless an
// identical call is already in flight. The bool reports whether this
// call joined another's flight. A waiter whose context expires stops
// waiting and returns the context error; the computation itself is
// never cancelled by a waiter (the winner owns it).
func (g *Group[T]) Do(ctx context.Context, key string, fn func() (T, error)) (T, bool, error) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = map[string]*call[T]{}
	}
	if c, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			var zero T
			return zero, true, ctx.Err()
		}
	}
	c := &call[T]{done: make(chan struct{})}
	g.inflight[key] = c
	g.mu.Unlock()

	// Cleanup runs deferred so a panicking fn (recovered upstream,
	// e.g. by net/http) cannot leave the key wedged with an unclosed
	// channel; the panic still propagates, and waiters see
	// ErrPanicked.
	completed := false
	defer func() {
		if !completed {
			c.err = ErrPanicked
		}
		g.mu.Lock()
		delete(g.inflight, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, false, c.err
}

// Inflight reports the number of keys currently being computed
// (test and metrics hook).
func (g *Group[T]) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight)
}

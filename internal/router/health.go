package router

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// shard is one worker in the fleet: its identity, its health state
// machine, and its share of the router's counters. The health machine
// is driven both actively (periodic /healthz probes) and passively (a
// transport-level proxy failure marks the shard unhealthy immediately,
// so the fleet reacts faster than one probe interval).
type shard struct {
	// ShardStats holds the shard's identity, fixed by New and read
	// without the lock (Name, the X-Shard label: the base URL sans
	// scheme; URL: the base URL, no trailing slash), and its health
	// flag and counters, which are behind mu.
	ShardStats

	mu sync.Mutex
	// cooldownUntil gates recovery: an unhealthy shard rejoins only
	// when a probe succeeds at or after this instant, so a flapping
	// worker (up for a probe, down for the next request) cannot
	// oscillate back into rotation faster than the cooldown.
	cooldownUntil time.Time
}

// markFailureFor transitions the shard to unhealthy (passive proxy
// failure or probe failure) and restarts its cooldown clock.
func (s *shard) markFailureFor(now time.Time, cooldown time.Duration) {
	s.mu.Lock()
	if s.Healthy {
		s.Healthy = false
		s.Transitions++
	}
	s.cooldownUntil = now.Add(cooldown)
	s.mu.Unlock()
}

// markSuccess transitions an unhealthy shard back to healthy when its
// cooldown has elapsed (probe success path).
func (s *shard) markSuccess(now time.Time) {
	s.mu.Lock()
	if !s.Healthy && !now.Before(s.cooldownUntil) {
		s.Healthy = true
		s.Transitions++
	}
	s.mu.Unlock()
}

// isHealthy reports the shard's current state.
func (s *shard) isHealthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Healthy
}

// observe accumulates one proxied attempt's outcome.
func (s *shard) observe(failed bool) {
	s.mu.Lock()
	s.Requests++
	if failed {
		s.Errors++
	}
	s.mu.Unlock()
}

// observeRetry charges one sibling retry to the shard whose failure
// caused it.
func (s *shard) observeRetry() {
	s.mu.Lock()
	s.Retries++
	s.mu.Unlock()
}

// ProbeOnce probes every shard's /healthz once, applying the health
// state machine: a failed probe (transport error or non-2xx) marks
// the shard unhealthy and restarts its cooldown; a successful probe
// returns it to rotation once the cooldown has elapsed. Exported so
// tests (and the startup path) can drive membership deterministically
// without waiting on the background prober.
func (rt *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			rt.probe(ctx, s)
		}(s)
	}
	wg.Wait()
}

// probe checks one shard's /healthz.
func (rt *Router) probe(ctx context.Context, s *shard) {
	pctx, cancel := context.WithTimeout(ctx, rt.opts.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.URL+"/healthz", nil)
	if err != nil {
		s.markFailureFor(time.Now(), rt.opts.cooldown())
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		s.markFailureFor(time.Now(), rt.opts.cooldown())
		return
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		s.markFailureFor(time.Now(), rt.opts.cooldown())
		return
	}
	s.markSuccess(time.Now())
}

// StartProbes launches the background membership prober: every probe
// interval, each shard's /healthz is checked and the health machine
// advanced. It returns immediately; Close stops the prober.
func (rt *Router) StartProbes() {
	rt.probeOnce.Do(func() {
		go func() {
			t := time.NewTicker(rt.opts.probeInterval())
			defer t.Stop()
			for {
				select {
				case <-rt.done:
					return
				case <-t.C:
					rt.ProbeOnce(context.Background())
				}
			}
		}()
	})
}

// Close stops the background prober (idempotent). In-flight proxied
// requests are unaffected.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
}

// healthyShards snapshots the names of shards currently in rotation;
// when every shard is unhealthy it returns all of them (routing to a
// probably-dead worker and failing with a typed error beats refusing
// outright, and the first success flips the shard back after its
// cooldown).
func (rt *Router) healthyShards() []string {
	names := make([]string, 0, len(rt.shards))
	for _, s := range rt.shards {
		if s.isHealthy() {
			names = append(names, s.Name)
		}
	}
	if len(names) == 0 {
		for _, s := range rt.shards {
			names = append(names, s.Name)
		}
	}
	return names
}

// shardByName resolves a shard name from Rank output back to its
// state; names are unique by construction (New rejects duplicates).
func (rt *Router) shardByName(name string) *shard {
	return rt.byName[name]
}

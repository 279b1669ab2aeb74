package router

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// metrics accumulates the router's own counters: client-facing
// request totals and failures, retries launched, batch fan-outs,
// stream aborts, and the window of front-end request latencies (the
// fan-out latency: accept to last byte handed to the client).
type metrics struct {
	mu sync.Mutex
	// st holds the counters; Stats derives Requests and the latency
	// fields from lat and fills in the shards.
	st  Stats
	lat obs.Window
}

// observeRequest records one completed client request and whether the
// router had to originate a failure for it.
func (m *metrics) observeRequest(d time.Duration, failed bool) {
	m.mu.Lock()
	m.lat.Observe(d)
	if failed {
		m.st.Errors++
	}
	m.mu.Unlock()
}

// observeRetryLaunched counts one sibling retry attempt.
func (m *metrics) observeRetryLaunched() {
	m.mu.Lock()
	m.st.Retries++
	m.mu.Unlock()
}

// observeBatch records one scatter-gathered batch and its fan-out
// width, plus the request itself: failed when any of its records is
// an error the router originated.
func (m *metrics) observeBatch(d time.Duration, fanout int, failed bool) {
	m.mu.Lock()
	m.lat.Observe(d)
	m.st.Batches++
	m.st.BatchFanouts += uint64(fanout)
	if failed {
		m.st.Errors++
	}
	m.mu.Unlock()
}

// observeStreamAbort counts one stream terminated by an in-band
// router error record (and as a client-visible failure).
func (m *metrics) observeStreamAbort() {
	m.mu.Lock()
	m.st.StreamAborts++
	m.st.Errors++
	m.mu.Unlock()
}

// ShardStats is one worker's slice of the router's counters.
type ShardStats struct {
	// Name is the shard's rendezvous identity and X-Shard label; URL
	// its base URL.
	Name string `json:"name"`
	URL  string `json:"url"`
	// Healthy is the shard's current membership state.
	Healthy bool `json:"healthy"`
	// Requests/Errors count proxied attempts sent to the shard and
	// the ones that failed at the transport level; Retries counts
	// sibling retries this shard's failures caused; Transitions
	// counts health flips in either direction.
	Requests    uint64 `json:"requests"`
	Errors      uint64 `json:"errors"`
	Retries     uint64 `json:"retries"`
	Transitions uint64 `json:"healthTransitions"`
}

// Stats is a point-in-time snapshot of the router's counters.
type Stats struct {
	// Requests counts client requests on proxied routes (batches
	// included); Errors the subset that ended in a router-originated
	// failure (a typed 502, an in-band stream abort, or a batch with
	// router-originated 502 records, counted once); Retries the
	// sibling retry attempts launched.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Retries  uint64 `json:"retries"`
	// Batches counts scatter-gathered /v1/batch requests;
	// BatchFanouts the sub-batches they dispatched.
	Batches      uint64 `json:"batches"`
	BatchFanouts uint64 `json:"batchFanouts"`
	// StreamAborts counts streams terminated with an in-band router
	// error record.
	StreamAborts uint64 `json:"streamAborts"`
	// HealthyShards is the current membership count; Shards the
	// per-worker breakdown, sorted by name.
	HealthyShards int          `json:"healthyShards"`
	Shards        []ShardStats `json:"shards"`
	// P50/P99 are nearest-rank quantiles of front-end request latency
	// over the last obs.WindowSize requests; LatencySum is cumulative
	// across all requests.
	P50        time.Duration `json:"p50Nanos"`
	P99        time.Duration `json:"p99Nanos"`
	LatencySum time.Duration `json:"latencySumNanos"`
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	rt.stats.mu.Lock()
	st := rt.stats.st
	lat, sum, count := rt.stats.lat.Snapshot()
	rt.stats.mu.Unlock()

	q := obs.Quantiles(lat, 0.50, 0.99)
	st.P50, st.P99, st.LatencySum, st.Requests = q[0], q[1], sum, count
	for _, s := range rt.shards {
		s.mu.Lock()
		ss := s.ShardStats
		s.mu.Unlock()
		if ss.Healthy {
			st.HealthyShards++
		}
		st.Shards = append(st.Shards, ss)
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Name < st.Shards[j].Name })
	return st
}

// writeStatsJSON renders a Stats snapshot as indented JSON (the
// /v1/stats wire form, matching the workers' own convention).
func writeStatsJSON(w http.ResponseWriter, st Stats) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// promText renders the router's counters in the Prometheus text
// exposition format, version 0.0.4, under the eblocksrouter_ prefix;
// shards are labels so dashboards sum or split without schema
// changes.
func promText(st Stats) string {
	var w obs.Writer
	w.Counter("eblocksrouter_requests_total", "Client requests on proxied routes (batches included).", obs.Value(st.Requests))
	w.Counter("eblocksrouter_request_errors_total", "Client requests that ended in a router-originated failure (typed 502 or in-band stream abort).", obs.Value(st.Errors))
	w.Counter("eblocksrouter_retries_total", "Sibling retry attempts launched after a shard transport failure.", obs.Value(st.Retries))
	w.Counter("eblocksrouter_batches_total", "Scatter-gathered /v1/batch requests.", obs.Value(st.Batches))
	w.Counter("eblocksrouter_batch_fanouts_total", "Sub-batches dispatched across all scatter-gathered batches.", obs.Value(st.BatchFanouts))
	w.Counter("eblocksrouter_stream_aborts_total", "Streams terminated with an in-band router error record.", obs.Value(st.StreamAborts))
	w.Gauge("eblocksrouter_healthy_shards", "Shards currently in rotation.", obs.Value(st.HealthyShards))

	var requests, errs, retries, transitions, healthy []obs.Sample
	for _, s := range st.Shards {
		up := 0
		if s.Healthy {
			up = 1
		}
		requests = append(requests, obs.Labeled("shard", s.Name, s.Requests))
		errs = append(errs, obs.Labeled("shard", s.Name, s.Errors))
		retries = append(retries, obs.Labeled("shard", s.Name, s.Retries))
		transitions = append(transitions, obs.Labeled("shard", s.Name, s.Transitions))
		healthy = append(healthy, obs.Labeled("shard", s.Name, up))
	}
	w.Counter("eblocksrouter_shard_requests_total", "Proxied attempts sent to each shard.", requests...)
	w.Counter("eblocksrouter_shard_errors_total", "Proxied attempts that failed at the transport level, by shard.", errs...)
	w.Counter("eblocksrouter_shard_retries_total", "Sibling retries caused by each shard's failures.", retries...)
	w.Counter("eblocksrouter_shard_health_transitions_total", "Health state flips (either direction), by shard.", transitions...)
	w.Gauge("eblocksrouter_shard_healthy", "Current membership state of each shard (1 = in rotation).", healthy...)

	w.Summary("eblocksrouter_request_latency_seconds", "Front-end request latency: quantiles over a sliding window of recent requests, sum/count over all requests.",
		st.P50, st.P99, st.LatencySum, st.Requests)
	return w.String()
}

package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// promText renders the service (and store) counters in the Prometheus
// text exposition format, version 0.0.4. Every series carries the
// eblocksd_ prefix; tiers and operations are labels, so dashboards sum
// or split them without schema changes.
func promText(st Stats) string {
	var b strings.Builder
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	sample := func(name, labels string, v interface{}) {
		if labels != "" {
			fmt.Fprintf(&b, "%s{%s} %v\n", name, labels, v)
		} else {
			fmt.Fprintf(&b, "%s %v\n", name, v)
		}
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }

	counter("eblocksd_requests_total", "Requests served across all endpoints.")
	sample("eblocksd_requests_total", "", st.Requests)
	counter("eblocksd_simulate_requests_total", "Simulation requests (the /v1/simulate share of eblocksd_requests_total).")
	sample("eblocksd_simulate_requests_total", "", st.SimulateRequests)
	counter("eblocksd_verify_requests_total", "Verification requests (the /v1/verify share of eblocksd_requests_total).")
	sample("eblocksd_verify_requests_total", "", st.VerifyRequests)
	counter("eblocksd_delta_requests_total", "Incremental synthesis requests (the /v1/delta share of eblocksd_requests_total).")
	sample("eblocksd_delta_requests_total", "", st.DeltaRequests)

	counter("eblocksd_partitions_total", "Per-partition merge outcomes across delta and cached synthesis: adopted from the stage cache vs. recomputed in-process.")
	sample("eblocksd_partitions_total", `outcome="adopted"`, st.PartitionsAdopted)
	sample("eblocksd_partitions_total", `outcome="recomputed"`, st.PartitionsRecomputed)
	counter("eblocksd_infeasible_hits_total", "Requests answered from the negative cache (persisted typed infeasibility) without running the pipeline.")
	sample("eblocksd_infeasible_hits_total", "", st.InfeasibleHits)

	counter("eblocksd_cache_hits_total", "Requests served from a cache tier, by the tier that answered.")
	sample("eblocksd_cache_hits_total", `tier="memory"`, st.MemoryHits)
	sample("eblocksd_cache_hits_total", `tier="disk"`, st.DiskHits)
	sample("eblocksd_cache_hits_total", `tier="remote"`, st.RemoteHits)
	counter("eblocksd_cache_misses_total", "Cacheable requests that ran the synthesis pipeline.")
	sample("eblocksd_cache_misses_total", "", st.CacheMisses)
	counter("eblocksd_coalesced_requests_total", "Requests that joined an identical in-flight computation.")
	sample("eblocksd_coalesced_requests_total", "", st.Coalesced)
	counter("eblocksd_request_errors_total", "Requests that failed.")
	sample("eblocksd_request_errors_total", "", st.Errors)

	counter("eblocksd_stream_requests_total", "Streamed simulate runs (NDJSON or VCD).")
	sample("eblocksd_stream_requests_total", "", st.StreamRequests)
	counter("eblocksd_streamed_changes_total", "Change records emitted by streamed simulate runs.")
	sample("eblocksd_streamed_changes_total", "", st.StreamedChanges)
	counter("eblocksd_snapshots_saved_total", "Simulator checkpoints persisted to the store (stage simstate.v1).")
	sample("eblocksd_snapshots_saved_total", "", st.SnapshotsSaved)
	counter("eblocksd_snapshot_lookups_total", "Resume-from-checkpoint lookups, by outcome.")
	sample("eblocksd_snapshot_lookups_total", `outcome="hit"`, st.SnapshotHits)
	sample("eblocksd_snapshot_lookups_total", `outcome="miss"`, st.SnapshotMisses)

	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n",
		"eblocksd_request_latency_seconds",
		"Request latency: quantiles over a sliding window of recent requests, sum/count over all requests.",
		"eblocksd_request_latency_seconds")
	sample("eblocksd_request_latency_seconds", `quantile="0.5"`, secs(st.P50))
	sample("eblocksd_request_latency_seconds", `quantile="0.99"`, secs(st.P99))
	sample("eblocksd_request_latency_seconds_sum", "", secs(st.LatencySum))
	sample("eblocksd_request_latency_seconds_count", "", st.Requests)

	if as := st.Admission; as != nil {
		counter("eblocksd_admission_total", "Admission-gate decisions on pipeline requests, by outcome.")
		sample("eblocksd_admission_total", `outcome="admitted"`, as.Admitted)
		sample("eblocksd_admission_total", `outcome="shed_queue"`, as.ShedQueue)
		sample("eblocksd_admission_total", `outcome="shed_quota"`, as.ShedQuota)
		gauge("eblocksd_admission_inflight", "Pipeline requests currently holding an inflight slot.")
		sample("eblocksd_admission_inflight", "", as.Inflight)
		gauge("eblocksd_admission_queue_depth", "Pipeline requests currently waiting for an inflight slot.")
		sample("eblocksd_admission_queue_depth", "", as.Queued)
		gauge("eblocksd_admission_queue_limit", "Configured bound on the admission wait queue.")
		sample("eblocksd_admission_queue_limit", "", as.QueueDepth)
		gauge("eblocksd_admission_inflight_limit", "Configured bound on concurrent pipeline requests (0 = unbounded).")
		sample("eblocksd_admission_inflight_limit", "", as.MaxInflight)
	}

	ss := st.Store
	gauge("eblocksd_store_entries", "Artifacts resident in the store's disk tier.")
	sample("eblocksd_store_entries", "", ss.Entries)
	gauge("eblocksd_store_bytes", "Bytes used by the store's disk tier (entry files, headers included).")
	sample("eblocksd_store_bytes", "", ss.BytesUsed)
	gauge("eblocksd_store_mem_entries", "Artifacts resident in the store's memory tier.")
	sample("eblocksd_store_mem_entries", "", ss.MemEntries)
	gauge("eblocksd_store_mem_bytes", "Payload bytes resident in the store's memory tier.")
	sample("eblocksd_store_mem_bytes", "", ss.MemBytesUsed)

	// Per-stage disk occupancy, for tuning -store-max-bytes against
	// the workload's actual artifact mix. Stages are emitted in
	// sorted order so scrapes diff cleanly.
	if len(ss.Stages) > 0 {
		stages := make([]string, 0, len(ss.Stages))
		for stage := range ss.Stages {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		gauge("eblocksd_store_stage_entries", "Artifacts resident in the store's disk tier, by pipeline stage.")
		for _, stage := range stages {
			sample("eblocksd_store_stage_entries", fmt.Sprintf("stage=%q", stage), ss.Stages[stage].Entries)
		}
		gauge("eblocksd_store_stage_bytes", "Bytes used by the store's disk tier, by pipeline stage.")
		for _, stage := range stages {
			sample("eblocksd_store_stage_bytes", fmt.Sprintf("stage=%q", stage), ss.Stages[stage].Bytes)
		}
	}

	counter("eblocksd_store_hits_total", "Store lookups served, by the tier that answered.")
	sample("eblocksd_store_hits_total", `tier="memory"`, ss.MemoryHits)
	sample("eblocksd_store_hits_total", `tier="disk"`, ss.DiskHits)
	sample("eblocksd_store_hits_total", `tier="remote"`, ss.RemoteHits)
	counter("eblocksd_store_misses_total", "Store lookups that missed every tier.")
	sample("eblocksd_store_misses_total", "", ss.Misses)
	counter("eblocksd_store_puts_total", "Artifacts written to the store locally.")
	sample("eblocksd_store_puts_total", "", ss.Puts)
	counter("eblocksd_store_evictions_total", "Entries evicted by the disk size bound.")
	sample("eblocksd_store_evictions_total", "", ss.Evictions)
	counter("eblocksd_store_corrupt_evicted_total", "Entries evicted because their checksum or framing failed on read.")
	sample("eblocksd_store_corrupt_evicted_total", "", ss.CorruptEvicted)
	counter("eblocksd_store_origin_requests_total", "Remote-protocol requests served by this instance as a shared origin, by operation.")
	sample("eblocksd_store_origin_requests_total", `op="get"`, ss.OriginGets)
	sample("eblocksd_store_origin_requests_total", `op="put"`, ss.OriginPuts)

	counter("eblocksd_store_remote_dropped_writes_total", "Write-throughs shed because the bounded async pool was saturated.")
	sample("eblocksd_store_remote_dropped_writes_total", "", ss.RemoteDroppedWrites)

	if rs := ss.Remote; rs != nil {
		counter("eblocksd_store_remote_fetches_total", "Lookups sent to the remote origin.")
		sample("eblocksd_store_remote_fetches_total", "", rs.Gets)
		counter("eblocksd_store_remote_fetch_hits_total", "Remote-origin lookups that returned a verified entry.")
		sample("eblocksd_store_remote_fetch_hits_total", "", rs.Hits)
		counter("eblocksd_store_remote_writes_total", "Artifacts written through to the remote origin.")
		sample("eblocksd_store_remote_writes_total", "", rs.Puts)
		counter("eblocksd_store_remote_errors_total", "Remote-origin operations that failed and degraded to local-only.")
		sample("eblocksd_store_remote_errors_total", "", rs.Errors)
	}
	return b.String()
}

// handleMetrics serves GET /metrics: the same counters as /v1/stats in
// the Prometheus text exposition format.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	fmt.Fprint(w, promText(s.Stats()))
}

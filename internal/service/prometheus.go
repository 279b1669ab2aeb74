package service

import (
	"sort"

	"repro/internal/obs"
)

// promText renders the service (and store) counters in the Prometheus
// text exposition format, version 0.0.4. Every series carries the
// eblocksd_ prefix; tiers and operations are labels, so dashboards sum
// or split them without schema changes.
func promText(st Stats) string {
	var w obs.Writer
	w.Counter("eblocksd_requests_total", "Requests served across all endpoints.", obs.Value(st.Requests))
	w.Counter("eblocksd_simulate_requests_total", "Simulation requests (the /v1/simulate share of eblocksd_requests_total).", obs.Value(st.SimulateRequests))
	w.Counter("eblocksd_verify_requests_total", "Verification requests (the /v1/verify share of eblocksd_requests_total).", obs.Value(st.VerifyRequests))
	w.Counter("eblocksd_delta_requests_total", "Incremental synthesis requests (the /v1/delta share of eblocksd_requests_total).", obs.Value(st.DeltaRequests))

	w.Counter("eblocksd_partitions_total", "Per-partition merge outcomes across delta and cached synthesis: adopted from the stage cache vs. recomputed in-process.",
		obs.Labeled("outcome", "adopted", st.PartitionsAdopted),
		obs.Labeled("outcome", "recomputed", st.PartitionsRecomputed))

	w.Counter("eblocksd_cache_hits_total", "Requests served from a cache tier, by the tier that answered.",
		obs.Labeled("tier", "memory", st.MemoryHits),
		obs.Labeled("tier", "disk", st.DiskHits),
		obs.Labeled("tier", "remote", st.RemoteHits))
	w.Counter("eblocksd_cache_misses_total", "Cacheable requests that ran the synthesis pipeline.", obs.Value(st.CacheMisses))
	w.Counter("eblocksd_coalesced_requests_total", "Requests that joined an identical in-flight computation.", obs.Value(st.Coalesced))
	w.Counter("eblocksd_request_errors_total", "Requests that failed.", obs.Value(st.Errors))

	w.Counter("eblocksd_stream_requests_total", "Streamed simulate runs (NDJSON or VCD).", obs.Value(st.StreamRequests))
	w.Counter("eblocksd_streamed_changes_total", "Change records emitted by streamed simulate runs.", obs.Value(st.StreamedChanges))
	w.Counter("eblocksd_snapshots_saved_total", "Simulator checkpoints persisted to the store (stage simstate.v1).", obs.Value(st.SnapshotsSaved))
	w.Counter("eblocksd_snapshot_lookups_total", "Resume-from-checkpoint lookups, by outcome.",
		obs.Labeled("outcome", "hit", st.SnapshotHits),
		obs.Labeled("outcome", "miss", st.SnapshotMisses))

	w.Summary("eblocksd_request_latency_seconds", "Request latency: quantiles over a sliding window of recent requests, sum/count over all requests.",
		st.P50, st.P99, st.LatencySum, st.Requests)

	if as := st.Admission; as != nil {
		w.Counter("eblocksd_admission_total", "Admission-gate decisions on pipeline requests, by outcome.",
			obs.Labeled("outcome", "admitted", as.Admitted),
			obs.Labeled("outcome", "shed_queue", as.ShedQueue),
			obs.Labeled("outcome", "shed_quota", as.ShedQuota))
		w.Gauge("eblocksd_admission_inflight", "Pipeline requests currently holding an inflight slot.", obs.Value(as.Inflight))
		w.Gauge("eblocksd_admission_queue_depth", "Pipeline requests currently waiting for an inflight slot.", obs.Value(as.Queued))
		w.Gauge("eblocksd_admission_queue_limit", "Configured bound on the admission wait queue.", obs.Value(as.QueueDepth))
		w.Gauge("eblocksd_admission_inflight_limit", "Configured bound on concurrent pipeline requests (0 = unbounded).", obs.Value(as.MaxInflight))
	}

	ss := st.Store
	w.Gauge("eblocksd_store_entries", "Artifacts resident in the store's disk tier.", obs.Value(ss.Entries))
	w.Gauge("eblocksd_store_bytes", "Bytes used by the store's disk tier (entry files, headers included).", obs.Value(ss.BytesUsed))
	w.Gauge("eblocksd_store_mem_entries", "Artifacts resident in the store's memory tier.", obs.Value(ss.MemEntries))
	w.Gauge("eblocksd_store_mem_bytes", "Payload bytes resident in the store's memory tier.", obs.Value(ss.MemBytesUsed))

	// Per-stage disk occupancy, for tuning -store-max-bytes against
	// the workload's actual artifact mix. Stages are emitted in
	// sorted order so scrapes diff cleanly.
	if len(ss.Stages) > 0 {
		stages := make([]string, 0, len(ss.Stages))
		for stage := range ss.Stages {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		var entries, bytes []obs.Sample
		for _, stage := range stages {
			entries = append(entries, obs.Labeled("stage", stage, ss.Stages[stage].Entries))
			bytes = append(bytes, obs.Labeled("stage", stage, ss.Stages[stage].Bytes))
		}
		w.Gauge("eblocksd_store_stage_entries", "Artifacts resident in the store's disk tier, by pipeline stage.", entries...)
		w.Gauge("eblocksd_store_stage_bytes", "Bytes used by the store's disk tier, by pipeline stage.", bytes...)
	}

	w.Counter("eblocksd_store_hits_total", "Store lookups served, by the tier that answered.",
		obs.Labeled("tier", "memory", ss.MemoryHits),
		obs.Labeled("tier", "disk", ss.DiskHits),
		obs.Labeled("tier", "remote", ss.RemoteHits))
	w.Counter("eblocksd_store_misses_total", "Store lookups that missed every tier.", obs.Value(ss.Misses))
	w.Counter("eblocksd_store_puts_total", "Artifacts written to the store locally.", obs.Value(ss.Puts))
	w.Counter("eblocksd_store_evictions_total", "Entries evicted by the disk size bound.", obs.Value(ss.Evictions))
	w.Counter("eblocksd_store_corrupt_evicted_total", "Entries evicted because their checksum or framing failed on read.", obs.Value(ss.CorruptEvicted))
	w.Counter("eblocksd_store_origin_requests_total", "Remote-protocol requests served by this instance as a shared origin, by operation.",
		obs.Labeled("op", "get", ss.OriginGets),
		obs.Labeled("op", "put", ss.OriginPuts))

	w.Counter("eblocksd_store_remote_dropped_writes_total", "Write-throughs shed because the bounded async pool was saturated.", obs.Value(ss.RemoteDroppedWrites))

	if rs := ss.Remote; rs != nil {
		w.Counter("eblocksd_store_remote_fetches_total", "Lookups sent to the remote origin.", obs.Value(rs.Gets))
		w.Counter("eblocksd_store_remote_fetch_hits_total", "Remote-origin lookups that returned a verified entry.", obs.Value(rs.Hits))
		w.Counter("eblocksd_store_remote_writes_total", "Artifacts written through to the remote origin.", obs.Value(rs.Puts))
		w.Counter("eblocksd_store_remote_errors_total", "Remote-origin operations that failed and degraded to local-only.", obs.Value(rs.Errors))
	}
	return w.String()
}

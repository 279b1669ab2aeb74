package service

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// latencyWindow is how many recent request durations the latency
// quantiles are computed over.
const latencyWindow = 4096

// metrics accumulates service counters and a sliding window of request
// latencies. All methods are goroutine-safe.
type metrics struct {
	mu         sync.Mutex
	requests   uint64
	simulates  uint64
	verifies   uint64
	deltas     uint64
	memoryHits uint64
	diskHits   uint64
	remoteHits uint64
	misses     uint64
	coalesced  uint64
	errors     uint64
	// adopted/recomputed accumulate per-partition merge outcomes across
	// all delta and cached-synthesis requests: how much merge work the
	// stage cache absorbed vs. how much ran in-process.
	adopted    uint64
	recomputed uint64
	// infeasibleHits counts requests answered from the negative cache
	// (stage infeasible.v1) instead of re-running a pipeline known to
	// fail.
	infeasibleHits uint64
	// streams counts streamed simulate runs (NDJSON or VCD);
	// streamedChanges totals the change records they emitted.
	streams         uint64
	streamedChanges uint64
	// snapshotsSaved counts checkpoints persisted to the store;
	// snapshotHits/snapshotMisses count resume lookups by outcome.
	snapshotsSaved uint64
	snapshotHits   uint64
	snapshotMisses uint64
	latSum         time.Duration
	lat            []time.Duration // ring buffer, latencyWindow capacity
	latNext        int
}

// observeStream counts one streamed simulate run and the change
// records it emitted.
func (m *metrics) observeStream(changes uint64) {
	m.mu.Lock()
	m.streams++
	m.streamedChanges += changes
	m.mu.Unlock()
}

// observeSnapshotSave counts a successfully persisted checkpoint.
func (m *metrics) observeSnapshotSave() {
	m.mu.Lock()
	m.snapshotsSaved++
	m.mu.Unlock()
}

// observeSnapshotLookup counts a resume lookup by outcome.
func (m *metrics) observeSnapshotLookup(hit bool) {
	m.mu.Lock()
	if hit {
		m.snapshotHits++
	} else {
		m.snapshotMisses++
	}
	m.mu.Unlock()
}

// observePartitions accumulates a merge's adopted/recomputed split.
func (m *metrics) observePartitions(adopted, recomputed int) {
	m.mu.Lock()
	m.adopted += uint64(adopted)
	m.recomputed += uint64(recomputed)
	m.mu.Unlock()
}

// observeInfeasibleHit counts a negative-cache hit.
func (m *metrics) observeInfeasibleHit() {
	m.mu.Lock()
	m.infeasibleHits++
	m.mu.Unlock()
}

func (m *metrics) observe(d time.Duration, outcome outcome) {
	m.observeClass(d, outcome, classSynth)
}

// observeClass is observe with the request class recorded: simulation
// and verification requests share the outcome counters and latency
// window with synthesis but are additionally counted per class, so
// /v1/stats can say how much of the traffic is which.
func (m *metrics) observeClass(d time.Duration, outcome outcome, class reqClass) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	switch class {
	case classSimulate:
		m.simulates++
	case classVerify:
		m.verifies++
	case classDelta:
		m.deltas++
	}
	switch outcome {
	case outcomeMemoryHit:
		m.memoryHits++
	case outcomeDiskHit:
		m.diskHits++
	case outcomeRemoteHit:
		m.remoteHits++
	case outcomeMiss:
		m.misses++
	case outcomeCoalesced:
		m.coalesced++
	case outcomeError:
		m.errors++
	}
	m.latSum += d
	if len(m.lat) < latencyWindow {
		m.lat = append(m.lat, d)
	} else {
		m.lat[m.latNext] = d
		m.latNext = (m.latNext + 1) % latencyWindow
	}
}

type outcome int

const (
	outcomeMemoryHit outcome = iota
	outcomeDiskHit
	outcomeRemoteHit
	outcomeMiss
	outcomeCoalesced
	outcomeError
	// outcomeUncached: a successful request outside the cache's scope
	// (a simulation, which is coalesced but never cached); counted in
	// Requests but not as a hit or miss.
	outcomeUncached
)

// reqClass discriminates request kinds in the counters.
type reqClass int

const (
	classSynth reqClass = iota
	classSimulate
	classVerify
	classDelta
)

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Requests counts all requests served (synthesize, batch,
	// partition, simulate, verify).
	Requests uint64 `json:"requests"`
	// SimulateRequests / VerifyRequests / DeltaRequests split out the
	// simulation, verification and incremental-synthesis share of
	// Requests.
	SimulateRequests uint64 `json:"simulateRequests"`
	VerifyRequests   uint64 `json:"verifyRequests"`
	DeltaRequests    uint64 `json:"deltaRequests"`
	// PartitionsAdopted / PartitionsRecomputed accumulate per-partition
	// merge outcomes across delta and cached-synthesis requests: the
	// share of merge work the stage cache absorbed.
	PartitionsAdopted    uint64 `json:"partitionsAdopted"`
	PartitionsRecomputed uint64 `json:"partitionsRecomputed"`
	// InfeasibleHits counts requests answered from the negative cache
	// (a persisted typed infeasibility outcome) without re-running the
	// pipeline.
	InfeasibleHits uint64 `json:"infeasibleHits"`
	// CacheHits totals hits across every tier (MemoryHits + DiskHits +
	// RemoteHits); kept for clients of the pre-store schema.
	CacheHits uint64 `json:"cacheHits"`
	// MemoryHits counts requests served from the store's memory tier;
	// DiskHits counts requests served from its disk tier; RemoteHits
	// counts requests served from the fleet's shared remote origin.
	MemoryHits uint64 `json:"memoryHits"`
	DiskHits   uint64 `json:"diskHits"`
	RemoteHits uint64 `json:"remoteHits"`
	// CacheMisses counts cacheable requests that ran the synthesis
	// pipeline; Coalesced counts requests that joined an identical
	// in-flight request instead of running their own (single-flight),
	// whichever tier that flight was served from.
	CacheMisses uint64 `json:"cacheMisses"`
	Coalesced   uint64 `json:"coalesced"`
	// Errors counts requests that failed.
	Errors uint64 `json:"errors"`
	// P50/P99 are request latency quantiles over a sliding window of
	// recent requests, in nanoseconds; LatencySum is the cumulative
	// request latency across ALL requests (the Prometheus summary's
	// _sum series).
	P50        time.Duration `json:"p50Nanos"`
	P99        time.Duration `json:"p99Nanos"`
	LatencySum time.Duration `json:"latencySumNanos"`
	// StreamRequests counts streamed simulate runs (NDJSON or VCD);
	// StreamedChanges totals the change records they emitted.
	StreamRequests  uint64 `json:"streamRequests"`
	StreamedChanges uint64 `json:"streamedChanges"`
	// SnapshotsSaved counts checkpoints persisted to the store;
	// SnapshotHits/SnapshotMisses count resume lookups by outcome.
	SnapshotsSaved uint64 `json:"snapshotsSaved"`
	SnapshotHits   uint64 `json:"snapshotHits"`
	SnapshotMisses uint64 `json:"snapshotMisses"`
	// Store carries the store's own counters (entries, bytes, per-tier
	// hits, evictions); the disk fields are zero for a memory-only
	// store.
	Store store.Stats `json:"store"`
	// Admission carries the overload gate's counters and gauges;
	// absent when admission control is not configured.
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// nearestRank returns the index of the q-th quantile of a sorted
// n-sample window under the nearest-rank definition: the smallest
// index i such that at least q*n samples are <= lat[i], i.e.
// ceil(q*n)-1. (The previous int(q*n) truncation picked the upper
// median for even windows and walked one rank high elsewhere — e.g.
// rank 100 of 100 for P99 — so tail quantiles over small windows
// reported the maximum instead of the 99th percentile.)
func nearestRank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// snapshot computes the quantiles over the current window.
func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	lat := make([]time.Duration, len(m.lat))
	copy(lat, m.lat)
	st := Stats{
		Requests:             m.requests,
		SimulateRequests:     m.simulates,
		VerifyRequests:       m.verifies,
		DeltaRequests:        m.deltas,
		PartitionsAdopted:    m.adopted,
		PartitionsRecomputed: m.recomputed,
		InfeasibleHits:       m.infeasibleHits,
		CacheHits:            m.memoryHits + m.diskHits + m.remoteHits,
		MemoryHits:           m.memoryHits,
		DiskHits:             m.diskHits,
		RemoteHits:           m.remoteHits,
		CacheMisses:          m.misses,
		Coalesced:            m.coalesced,
		Errors:               m.errors,
		StreamRequests:       m.streams,
		StreamedChanges:      m.streamedChanges,
		SnapshotsSaved:       m.snapshotsSaved,
		SnapshotHits:         m.snapshotHits,
		SnapshotMisses:       m.snapshotMisses,
		LatencySum:           m.latSum,
	}
	m.mu.Unlock()

	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.P50 = lat[nearestRank(0.50, len(lat))]
		st.P99 = lat[nearestRank(0.99, len(lat))]
	}
	return st
}

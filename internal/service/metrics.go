package service

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// metrics accumulates the service counters and the request latency
// window. All methods are goroutine-safe.
type metrics struct {
	mu sync.Mutex
	// st holds the counters; snapshot derives the rest of a Stats
	// (Requests, CacheHits and the latency fields) from st and lat.
	st  Stats
	lat obs.Window
}

// observeStream counts one streamed simulate run and the change
// records it emitted.
func (m *metrics) observeStream(changes uint64) {
	m.mu.Lock()
	m.st.StreamRequests++
	m.st.StreamedChanges += changes
	m.mu.Unlock()
}

// observeSnapshotSave counts a successfully persisted checkpoint.
func (m *metrics) observeSnapshotSave() {
	m.mu.Lock()
	m.st.SnapshotsSaved++
	m.mu.Unlock()
}

// observeSnapshotLookup counts a resume lookup by outcome.
func (m *metrics) observeSnapshotLookup(hit bool) {
	m.mu.Lock()
	if hit {
		m.st.SnapshotHits++
	} else {
		m.st.SnapshotMisses++
	}
	m.mu.Unlock()
}

// observePartitions accumulates a merge's adopted/recomputed split.
func (m *metrics) observePartitions(adopted, recomputed int) {
	m.mu.Lock()
	m.st.PartitionsAdopted += uint64(adopted)
	m.st.PartitionsRecomputed += uint64(recomputed)
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
	m.lat.Observe(d)
	switch class {
	case classSimulate:
		m.st.SimulateRequests++
	case classVerify:
		m.st.VerifyRequests++
	case classDelta:
		m.st.DeltaRequests++
	}
	switch outcome {
	case outcomeMemoryHit:
		m.st.MemoryHits++
	case outcomeDiskHit:
		m.st.DiskHits++
	case outcomeRemoteHit:
		m.st.RemoteHits++
	case outcomeMiss:
		m.st.CacheMisses++
	case outcomeCoalesced:
		m.st.Coalesced++
	case outcomeError:
		m.st.Errors++
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
	// P50/P99 are nearest-rank request latency quantiles over the
	// last obs.WindowSize requests, in nanoseconds; LatencySum is the cumulative
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

// snapshot copies the counters and computes the latency quantiles.
func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	st := m.st
	lat, sum, count := m.lat.Snapshot()
	m.mu.Unlock()

	q := obs.Quantiles(lat, 0.50, 0.99)
	st.P50, st.P99, st.LatencySum, st.Requests = q[0], q[1], sum, count
	st.CacheHits = st.MemoryHits + st.DiskHits + st.RemoteHits
	return st
}

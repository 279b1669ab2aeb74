package store

// Backend is the remote tier behind a Store's local tiers (see
// Options.Remote); Remote, the HTTP client of another store's origin
// routes, implements it. The Store reads through it on a local miss
// and writes framed entries through it on Put. Get is a pure lookup —
// a failed or degraded backend reports a miss, never an error — while
// PutRaw may fail (the Store treats remote persistence as an
// optimization, not a correctness dependency). Implementations must be
// safe for concurrent use.
type Backend interface {
	// Get returns the payload stored under k, or reports a miss. A
	// backend that cannot answer (down origin, corrupt entry) misses.
	Get(k Key) ([]byte, bool)
	// PutRaw stores a framed entry (the exact bytes the disk tier
	// installs) under its content address, replacing any existing
	// entry.
	PutRaw(id string, raw []byte) error
	// Stats snapshots the backend's counters.
	Stats() BackendStats
	// Close releases the backend's resources; subsequent Gets miss and
	// PutRaws fail.
	Close() error
}

// BackendStats is a point-in-time snapshot of one backend's counters.
// Size fields are zero for backends that do not know their footprint
// (a remote origin does not report its disk usage to clients).
type BackendStats struct {
	// Gets counts lookups; Hits the subset that returned a payload.
	Gets uint64 `json:"gets"`
	Hits uint64 `json:"hits"`
	// Puts counts successful writes.
	Puts uint64 `json:"puts"`
	// Errors counts operations that failed (network errors, rejected
	// writes, corrupt entries) and degraded to a miss or a dropped
	// write.
	Errors uint64 `json:"errors"`
	// Entries / BytesUsed describe the backend's resident footprint,
	// when known.
	Entries   int   `json:"entries"`
	BytesUsed int64 `json:"bytesUsed"`
}

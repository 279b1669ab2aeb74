// Package store is a persistent, content-addressed artifact store: the
// durable tiers of the synthesis service's result cache. Artifacts are
// opaque byte payloads keyed by (design fingerprint, constraints,
// algorithm, stage), so any deterministic stage output — a partition
// result, a full synthesis response — can be memoized durably and
// shared across process restarts and across a fleet of instances.
//
// Storage tiers sit behind the Backend interface (Get/Put/Stats/
// Close). Two backends ship with the package:
//
//   - Disk: a size-bounded directory of checksummed entry files with
//     an LRU index — the store's durable local tier.
//   - Remote: an HTTP client over another instance's GET/PUT
//     /v1/store/{id} routes (served by Store.RemoteHandler), so a
//     fleet shares one artifact namespace. Fetches verify every entry
//     end to end; a down origin trips a cooldown and degrades the
//     store to local-only, never failing a request.
//
// The Store layers a small in-memory payload LRU (Options.MemBytes)
// over the disk backend and, when configured, the remote backend:
// Gets read through memory → disk → remote (remote fetches are
// single-flighted per entry and written through locally), Puts write
// through disk and on to the remote origin. Get reports which tier
// served each hit. Opened with no directory, a Store is memory-only:
// the payload LRU is its one tier.
//
// Durability discipline:
//
//   - Writes are atomic: each entry is written to a temp file in the
//     store directory and renamed into place, so a crash mid-write can
//     never leave a half-visible entry. Leftover temp files are swept
//     on Open.
//   - Reads are verified: every entry carries the SHA-256 of its
//     payload, checked on every disk read and every remote fetch. A
//     corrupt or truncated entry is evicted (or, remotely, ignored)
//     and reported as a miss — never an error.
//   - The store is size-bounded: total disk usage is capped by
//     Options.MaxBytes with least-recently-used eviction.
package store

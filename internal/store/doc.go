// Package store is a persistent, content-addressed artifact store: the
// durable tiers of the synthesis service's result cache. Artifacts are
// opaque byte payloads keyed by (design fingerprint, constraints,
// algorithm, stage), so any deterministic stage output — a partition
// result, a full synthesis response — can be memoized durably and
// shared across process restarts and across a fleet of instances.
//
// A Store holds two local tiers in one entry index under one mutex:
// a small in-memory payload LRU (Options.MemBytes) and a size-bounded
// directory of checksummed entry files with its own LRU
// (Options.MaxBytes). Each entry records its file and, when resident,
// its payload. An optional third tier sits behind the Backend
// interface (Get/PutRaw/Stats/Close); the package ships Remote, an
// HTTP client over another instance's GET/PUT /v1/store/{id} routes
// (served by Store.RemoteHandler), so a fleet shares one artifact
// namespace. Fetches verify every entry end to end; a down origin
// trips a cooldown and degrades the store to local-only, never
// failing a request.
//
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
//   - Installs are ordered: every install (a Put, a remote fetch's
//     write-through, an origin PUT) takes a fresh generation, and a
//     payload read from disk is promoted into memory only while its
//     entry still holds the generation it was read from, so a slow
//     reader can never bring back a replaced payload.
//   - The store is size-bounded: total disk usage is capped by
//     Options.MaxBytes with least-recently-used eviction.
package store

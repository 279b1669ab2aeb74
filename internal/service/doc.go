// Package service is the production front-end of the synthesis
// pipeline: a tiered (memory over disk over an optional fleet-shared
// remote origin), content-addressed, single-flight result cache over
// internal/synth plus a batch API that fans many designs out across
// the bench worker pool. Results are keyed on (design fingerprint,
// constraints, algorithm), so identical requests — from any client, in
// any order, before or after a process restart, on any instance of a
// fleet — synthesize once and then serve from cache, byte-for-byte
// identical to the cold run.
//
// The cache is one internal/store artifact store (Config.Store): its
// memory tier, then — when it has a directory — its disk tier, which
// survives restarts, then an optional remote backend, which misses
// through to another instance's shared artifact namespace. Without a
// configured store the service opens a memory-only one. Besides full
// responses the store memoizes the partition and verification stages
// (so constraint sweeps and partition-only requests reuse partitioning
// work), negative results, design documents and simulator checkpoints.
// cmd/eblocksd serves this package over HTTP, including the
// shared-origin /v1/store routes and a Prometheus /metrics export;
// see http.go for the wire schema and docs/API.md for the full
// reference.
package service

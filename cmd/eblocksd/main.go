// Command eblocksd serves the synthesis pipeline over HTTP: a
// concurrent front-end over one content-addressed artifact store —
// a memory tier over an optional disk tier (-store-dir) over an
// optional remote origin (-store-remote) — so repeated synthesis of
// the same design is served from memory, and a restarted server with
// a disk tier keeps serving byte-identical responses from disk.
// Without -store-dir the store is memory-only; -store-mem-bytes sizes
// its memory tier either way. JSON in, JSON out, reusing the netlist
// JSON wire form.
//
// Usage:
//
//	eblocksd -addr :8080 -store-dir /var/lib/eblocksd -store-max-bytes 268435456
//
// Endpoints:
//
//	POST /v1/synthesize  {"design": {...} | "ebk": "...", "algorithm": "paredown", ...}
//	POST /v1/delta       {"baseFingerprint"|"design"|"ebk", "edits": [...]} — incremental synthesis
//	POST /v1/partition   same request shape; partitioning summary only
//	POST /v1/batch       {"requests": [ ... ]}
//	POST /v1/simulate    {"design"|"ebk"|"fingerprint", "script": "at 100 set door 1", ...}
//	                     ?stream=ndjson streams the trace incrementally with progress
//	                     heartbeats; ?checkpointEvery=N persists simstate.v1 snapshots
//	                     every N ms of simulation time; ?format=vcd streams a VCD document
//	POST /v1/simulate/resume {"fingerprint", "cycle", "until", ...} — continue a
//	                     checkpointed run from the nearest persisted snapshot
//	POST /v1/verify      synthesis request + stimulus schedule; Verified-stage cached
//	GET  /v1/algorithms
//	GET  /v1/stats
//	GET  /v1/store/{id}  shared-origin artifact fetch (fleet cache)
//	PUT  /v1/store/{id}  shared-origin artifact upload (fleet cache)
//	GET  /metrics        Prometheus text exposition
//	GET  /healthz
//
// With -store-remote pointed at another eblocksd, a fleet of instances
// shares one artifact namespace: lookups miss through memory and disk
// to the origin's /v1/store routes, writes flow through to it, and a
// down origin degrades the instance to local-only (never a failed
// request). Any instance with -store-dir can act as the origin.
//
// Synthesize, partition and verify responses carry an X-Cache header
// naming the tier that served them: "memory", "disk", "remote" or
// "miss". See docs/API.md for the full HTTP reference.
//
// With -max-inflight and/or -quota-rps set, the pipeline routes sit
// behind an admission gate: each client (bearer token or remote host)
// gets a token-bucket quota, concurrent pipeline work is bounded with
// a small wait queue, and excess load is shed with 429 + Retry-After
// instead of queueing unboundedly. /v1/stats and /metrics expose the
// gate's counters (eblocksd_admission_total{outcome}) and depth
// gauges. Observability routes are never gated.
//
// The server drains in-flight requests on SIGINT/SIGTERM before
// exiting (graceful shutdown, 10 s grace period).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		workers        = flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		storeDir       = flag.String("store-dir", "", "directory for the artifact store's disk tier (empty = memory-only store)")
		storeMaxBytes  = flag.Int64("store-max-bytes", store.DefaultMaxBytes, "disk budget for the artifact store; least recently used entries are evicted beyond it")
		storeMemBytes  = flag.Int64("store-mem-bytes", store.DefaultMemBytes, "payload budget for the store's memory tier, which serves every cached response and stage artifact before disk is read (-1 disables it)")
		storeRemote    = flag.String("store-remote", "", "base URL of a shared remote artifact origin — another eblocksd, e.g. http://cache.internal:8080 (its /v1/store routes are used); requires -store-dir. Lookups miss through memory and disk to it, writes flow through to it, and a down origin degrades this instance to local-only")
		storeRemoteTMO = flag.Duration("store-remote-timeout", store.DefaultRemoteTimeout, "per-round-trip timeout for the remote artifact origin")
		storeAuth      = flag.String("store-auth", "", "shared secret for the fleet's /v1/store routes: required of callers on this instance's origin routes and sent to the -store-remote origin (empty = no auth; rely on network isolation)")
		simMaxEvents   = flag.Int("sim-max-events", 0, "cap on the per-request simulation event budget for /v1/simulate and /v1/verify (0 = the simulator default of 1,000,000)")
		maxInflight    = flag.Int("max-inflight", 0, "bound on concurrent pipeline requests (synthesize/partition/batch/delta/simulate/verify); arrivals beyond it wait in a bounded queue and are shed with 429 past that (0 = unbounded)")
		queueDepth     = flag.Int("queue-depth", 0, "bound on requests waiting for an inflight slot before new arrivals are shed with 429 (0 = same as -max-inflight, negative = no queue)")
		quotaRPS       = flag.Float64("quota-rps", 0, "per-client steady-state request quota in requests/sec, keyed by bearer token or remote host; requests beyond it are shed with 429 + Retry-After (0 = no quotas)")
		quotaBurst     = flag.Int("quota-burst", 0, "per-client token-bucket burst capacity behind -quota-rps (0 = 2x the quota, minimum 1)")
	)
	flag.Parse()

	if *storeRemote != "" && *storeDir == "" {
		log.Fatalf("eblocksd: -store-remote requires -store-dir (the remote tier layers beneath the local disk tier)")
	}
	opts := store.Options{MaxBytes: *storeMaxBytes, MemBytes: *storeMemBytes}
	if *storeRemote != "" {
		base := strings.TrimRight(*storeRemote, "/")
		if !strings.HasSuffix(base, "/v1/store") {
			base += "/v1/store"
		}
		opts.Remote = store.NewRemote(base, store.RemoteOptions{Timeout: *storeRemoteTMO, AuthToken: *storeAuth})
		log.Printf("eblocksd: sharing artifacts with remote origin %s", base)
	}
	st, err := store.Open(*storeDir, opts)
	if err != nil {
		log.Fatalf("eblocksd: opening store: %v", err)
	}
	defer st.Close()
	if *storeDir == "" {
		log.Printf("eblocksd: memory-only artifact store (memory budget %d)", *storeMemBytes)
	} else {
		stats := st.Stats()
		log.Printf("eblocksd: artifact store at %s (%d entries, %d bytes, budget %d)",
			*storeDir, stats.Entries, stats.BytesUsed, *storeMaxBytes)
	}

	svc := service.New(service.Config{
		Store: st, Workers: *workers,
		SimMaxEvents: *simMaxEvents, StoreAuthToken: *storeAuth,
		MaxInflight: *maxInflight, QueueDepth: *queueDepth,
		QuotaRPS: *quotaRPS, QuotaBurst: *quotaBurst,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("eblocksd: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("eblocksd: %v", err)
		}
	case <-ctx.Done():
		log.Printf("eblocksd: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("eblocksd: shutdown: %v", err)
		}
	}

	ss := svc.Stats()
	fmt.Fprintf(os.Stderr, "eblocksd: served %d requests (%d memory hits, %d disk hits, %d coalesced, %d errors), p50 %v p99 %v\n",
		ss.Requests, ss.MemoryHits, ss.DiskHits, ss.Coalesced, ss.Errors, ss.P50, ss.P99)
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/netlist"
	"repro/internal/store"
	"repro/internal/synth"
)

// Config tunes a Service.
type Config struct {
	// Workers bounds the batch API's worker pool; 0 means GOMAXPROCS.
	Workers int
	// Store is the service's cache: responses and partition-,
	// verified-, design-, negative- and checkpoint-stage artifacts are
	// written to it and served from its tiers (memory, then disk, then
	// the remote origin). Nil means a memory-only store with the
	// default memory budget (store.Open with no directory).
	Store *store.Store
	// SimMaxEvents caps the event budget of simulation and
	// verification requests (sim.Config.MaxEvents): requests may lower
	// the budget beneath the cap but never raise it above. 0 leaves
	// the simulator default (1,000,000) as the effective ceiling.
	SimMaxEvents int
	// StoreAuthToken, when non-empty, gates the shared-origin
	// /v1/store routes behind "Authorization: Bearer <token>" (see
	// store.AuthMiddleware). Fleets whose members set the same token
	// in their remote backends interoperate; everyone else gets 401.
	StoreAuthToken string
	// MaxInflight bounds how many pipeline (synthesize, partition,
	// batch, delta, simulate, verify) requests run concurrently;
	// arrivals beyond it wait in a bounded queue (QueueDepth) and are
	// shed with 429 + Retry-After past that. 0 means unbounded, as
	// before.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an inflight
	// slot before new arrivals are shed with 429. 0 defaults to
	// MaxInflight; negative means no queue (shed as soon as every
	// slot is busy). Ignored when MaxInflight is 0.
	QueueDepth int
	// QuotaRPS, when positive, rate-limits each client (keyed by
	// bearer token when the request carries one, else by remote host)
	// to this steady-state request rate via a token bucket of
	// QuotaBurst capacity. Requests beyond the quota are shed with
	// 429 + Retry-After. 0 means no per-client quotas.
	QuotaRPS float64
	// QuotaBurst is the token-bucket capacity behind QuotaRPS: how far
	// a client may briefly exceed the steady-state rate. 0 defaults to
	// ceil(2*QuotaRPS), minimum 1.
	QuotaBurst int
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	switch {
	case c.QueueDepth < 0:
		return 0
	case c.QueueDepth == 0:
		return c.MaxInflight
	default:
		return c.QueueDepth
	}
}

func (c Config) quotaBurst() float64 {
	if c.QuotaBurst > 0 {
		return float64(c.QuotaBurst)
	}
	b := math.Ceil(2 * c.QuotaRPS)
	if b < 1 {
		b = 1
	}
	return b
}

// Service synthesizes designs with result caching. Safe for concurrent
// use.
type Service struct {
	cfg   Config
	store *store.Store

	stats metrics
	// sem bounds concurrent batch synthesis work across ALL
	// SynthesizeAll calls, so parallel /v1/batch requests cannot
	// multiply the worker pool past Config.Workers.
	sem chan struct{}
	// partMu/partInflight coalesce identical concurrent partition
	// computations (see Partition): the winner populates the store's
	// stage cache, waiters block on the channel and then read it.
	partMu       sync.Mutex
	partInflight map[string]chan struct{}
	// synthGroup/simGroup/verifyGroup coalesce identical concurrent
	// synthesis, simulation and verification computations onto one
	// flight each (see Synthesize, Simulate, Verify). All three share
	// the ctx-aware flight.Group: a waiter whose client disconnects stops
	// waiting immediately; the winner's computation keeps running
	// detached and still populates the caches.
	synthGroup  flight.Group[synthOutcome]
	simGroup    flight.Group[*SimulateResponse]
	verifyGroup flight.Group[verifyOutcome]
	// adm is the overload gate in front of the pipeline routes
	// (nil when neither MaxInflight nor QuotaRPS is configured).
	adm *admission
}

// synthOutcome is what a synthesis flight produces: the response plus
// the store tier that served it (TierNone when it was computed).
type synthOutcome struct {
	resp *Response
	tier store.Tier
}

// New builds a Service, over a memory-only store when cfg.Store is
// nil.
func New(cfg Config) *Service {
	st := cfg.Store
	if st == nil {
		// Opening a memory-only store without a remote cannot fail.
		st, _ = store.Open("", store.Options{})
	}
	return &Service{
		cfg:          cfg,
		store:        st,
		sem:          make(chan struct{}, cfg.workers()),
		partInflight: map[string]chan struct{}{},
		adm:          newAdmission(cfg),
	}
}

// loadResponse decodes the full response cached for sk and reports the
// store tier that held it.
func (s *Service) loadResponse(sk synth.StageKey) (*Response, store.Tier, bool) {
	raw, tier, ok := s.store.Get(storeKey(sk, stageResponse))
	if !ok {
		return nil, store.TierNone, false
	}
	var r Response
	if json.Unmarshal(raw, &r) != nil {
		return nil, store.TierNone, false
	}
	return &r, tier, true
}

// saveResponse caches a computed response for sk. Store write
// failures are swallowed: caching is an optimization, never a
// correctness dependency.
func (s *Service) saveResponse(sk synth.StageKey, r *Response) {
	if raw, err := json.Marshal(r); err == nil {
		s.store.Put(storeKey(sk, stageResponse), raw)
	}
}

// Request names one synthesis job: a design plus the knobs that affect
// its outcome. The zero values mean the paper's setup (2x2 block,
// PareDown, convexity guard on).
type Request struct {
	// Design is the input network.
	Design *netlist.Design
	// Algorithm is a core registry name; "" means "paredown".
	Algorithm string
	// Constraints of the programmable block; zero means the paper's
	// 2x2.
	Constraints core.Constraints
	// PaperMode disables the convexity guard (see synth.Options).
	PaperMode bool
}

func (r Request) synthOptions() synth.Options {
	return synth.Options{
		Constraints: r.Constraints,
		Algorithm:   synth.Algorithm(r.Algorithm),
		PaperMode:   r.PaperMode,
	}
}

// Source says which cache tier (if any) served a response.
type Source int

const (
	// SourceMiss: the response was computed by this request (or by a
	// concurrent identical request it coalesced onto).
	SourceMiss Source = iota
	// SourceMemory: served from the store's memory tier.
	SourceMemory
	// SourceDisk: loaded from the store's disk tier (and promoted to
	// the memory tier).
	SourceDisk
	// SourceRemote: fetched from the fleet's shared remote origin (and
	// written through to the local tiers).
	SourceRemote
)

// String renders the X-Cache header value: "memory", "disk", "remote"
// or "miss".
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourceRemote:
		return "remote"
	default:
		return "miss"
	}
}

// Cached reports whether the response was served without running the
// synthesis pipeline in this process.
func (s Source) Cached() bool { return s != SourceMiss }

// served maps the store tier that held a result onto its Source and
// its stats outcome; TierNone means the result was computed.
func served(t store.Tier) (Source, outcome) {
	switch t {
	case store.TierMemory:
		return SourceMemory, outcomeMemoryHit
	case store.TierDisk:
		return SourceDisk, outcomeDiskHit
	case store.TierRemote:
		return SourceRemote, outcomeRemoteHit
	default:
		return SourceMiss, outcomeMiss
	}
}

// stageResponse names full synthesis responses in the artifact store;
// partition artifacts use synth.StagePartitioned. The suffix is the
// Response schema version: bump it whenever the Response wire form
// changes shape, so entries persisted by an older binary miss (and
// are recomputed) instead of being served with stale or zero-valued
// fields.
const stageResponse = "response.v1"

// storeKey maps a synthesis content address and stage onto the
// artifact store's key space. A stage-specific Aux component (the
// Verified stage's stimulus hash and sim semantics) folds into the
// Constraints field — the store documents Constraints as "every knob
// that can change the artifact", which is exactly what Aux carries.
func storeKey(k synth.StageKey, stage string) store.Key {
	cons := k.Constraints
	if k.Aux != "" {
		cons += "|" + k.Aux
	}
	return store.Key{
		Fingerprint: k.Fingerprint,
		Constraints: cons,
		Algorithm:   k.Algorithm,
		Stage:       stage,
	}
}

// designStoreKey addresses a persisted design document: keyed by the
// design's own fingerprint alone (a design exists upstream of any
// constraints or algorithm choice).
func designStoreKey(fingerprint string) store.Key {
	return store.Key{Fingerprint: fingerprint, Stage: stageDesign}
}

// stages is the per-request synth.StageCache adapter over the
// artifact store. It records the tier that served the last hit so
// handlers can label partition responses; a fresh value is used per
// request, so the field is race-free.
type stages struct {
	store *store.Store
	tier  store.Tier
}

// GetStage implements synth.StageCache over the artifact store.
func (a *stages) GetStage(stage string, key synth.StageKey) ([]byte, bool) {
	data, tier, ok := a.store.Get(storeKey(key, stage))
	if ok {
		a.tier = tier
	}
	return data, ok
}

// PutStage implements synth.StageCache over the artifact store.
// Store write failures are deliberately swallowed: persistence is an
// optimization, never a correctness dependency.
func (a *stages) PutStage(stage string, key synth.StageKey, data []byte) {
	a.store.Put(storeKey(key, stage), data)
}

// StageCacheOver adapts a persistent store into the synthesis
// pipeline's stage cache, using the same key layout the service does —
// artifacts written by a CLI run are adopted by a server sharing the
// store dir, and vice versa. A nil store yields a nil cache (stage
// caching off).
func StageCacheOver(st *store.Store) synth.StageCache {
	if st == nil {
		return nil
	}
	return &stages{store: st}
}

// Synthesize runs (or serves from cache) one synthesis job, reporting
// the tier that served it; cached responses — memory, disk or remote —
// are byte-for-byte identical to cold ones. Identical concurrent
// requests share one flight, which reads the store once and computes
// only on a miss, so a coalesced waiter reports the flight's tier. The
// context gates admission and waiting (a request whose context is
// already cancelled fails fast, and a coalesced waiter whose client
// disconnects stops waiting), but a cold run, once started, is
// completed and cached detached from the originating context — so a
// client disconnect can never poison the coalesced requests waiting on
// the same flight.
func (s *Service) Synthesize(ctx context.Context, req Request) (*Response, Source, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		s.stats.observe(time.Since(start), outcomeError)
		return nil, SourceMiss, err
	}
	ca, err := synth.Capture(req.Design, req.synthOptions())
	if err != nil {
		s.stats.observe(time.Since(start), outcomeError)
		return nil, SourceMiss, err
	}
	sk := ca.StageKey()

	out, coalesced, err := s.synthGroup.Do(ctx, sk.String(), func() (synthOutcome, error) {
		// A response cached by this process, persisted by an earlier
		// one, or written by another instance of the fleet (the
		// store's remote tier) skips synthesis entirely.
		if r, tier, ok := s.loadResponse(sk); ok {
			return synthOutcome{resp: r, tier: tier}, nil
		}
		// Negative cache: a marker from an earlier identical request that
		// failed with the typed infeasibility error short-circuits the
		// pipeline (infeasibility is as deterministic as success).
		if s.infeasibleHit(sk) {
			s.stats.observeInfeasibleHit()
			return synthOutcome{}, synth.ErrUnrealizable
		}
		// Cold path: partition, then merge with per-partition artifact
		// caching — a cold synthesis populates the store with each
		// partition's merge artifact, which is what later /v1/delta
		// requests adopt.
		cache := &stages{store: s.store}
		pt, _, err := ca.PartitionCached(context.WithoutCancel(ctx), cache)
		if err != nil {
			return synthOutcome{}, s.noteInfeasible(sk, err)
		}
		mg, ms, err := pt.MergeCached(cache)
		if err != nil {
			return synthOutcome{}, s.noteInfeasible(sk, err)
		}
		s.stats.observePartitions(ms.Adopted, ms.Recomputed)
		em, err := mg.Emit()
		if err != nil {
			return synthOutcome{}, err
		}
		r, err := NewResponse(em.Output(), ca)
		if err != nil {
			return synthOutcome{}, err
		}
		s.saveResponse(sk, r)
		return synthOutcome{resp: r, tier: store.TierNone}, nil
	})

	source, o := served(out.tier)
	switch {
	case err != nil:
		o = outcomeError
	case coalesced:
		o = outcomeCoalesced
	}
	s.stats.observe(time.Since(start), o)
	return out.resp, source, err
}

// SynthesizeAll runs a batch of jobs over the bench worker pool,
// returning responses index-aligned with the requests. The first
// failing request (by index order) aborts the batch. Duplicate designs
// inside one batch synthesize once: concurrent identical jobs coalesce
// onto a single flight. Total synthesis concurrency is bounded by
// Config.Workers across all concurrent batches, not per call.
func (s *Service) SynthesizeAll(ctx context.Context, reqs []Request) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	err := bench.ParallelFor(len(reqs), s.cfg.workers(), func(i int) error {
		s.sem <- struct{}{}
		resp, _, err := s.Synthesize(ctx, reqs[i])
		<-s.sem
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, reqs[i].Design.Name, err)
		}
		out[i] = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Partition runs the capture and partition stages only — no merge, no
// emit — and reports the partitioning plus the tier that served it.
// Partition artifacts are cached at stage granularity (stage
// synth.StagePartitioned), independently of full responses — a
// partition computed here is reused by a later full synthesis of the
// same job, and vice versa, across restarts when the store has a disk
// — and identical concurrent partition requests coalesce onto a single
// computation.
func (s *Service) Partition(ctx context.Context, req Request) (*PartitionResponse, Source, error) {
	start := time.Now()
	ca, err := synth.Capture(req.Design, req.synthOptions())
	if err != nil {
		s.stats.observe(time.Since(start), outcomeError)
		return nil, SourceMiss, err
	}
	// Coalesce identical concurrent partition computations: the first
	// request through computes and writes the stage artifact; the rest
	// wait on its channel and then serve from the store the winner just
	// populated (each decodes against its own design build). This is
	// deliberately looser than the flight.Group-based flights: no
	// result or error is shared, so a waiter whose winner failed (or
	// panicked — the deferred close still runs) simply falls through to
	// computing itself. The inflight key matches the stage artifact's
	// own key — the structural fingerprint — so requests that differ
	// only in parameters (same partitioning) coalesce too.
	k := ca.StructKey().String()
	s.partMu.Lock()
	if ch, inflight := s.partInflight[k]; inflight {
		s.partMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			s.stats.observe(time.Since(start), outcomeError)
			return nil, SourceMiss, ctx.Err()
		}
	} else {
		ch = make(chan struct{})
		s.partInflight[k] = ch
		s.partMu.Unlock()
		defer func() {
			s.partMu.Lock()
			delete(s.partInflight, k)
			s.partMu.Unlock()
			close(ch)
		}()
	}
	st := &stages{store: s.store}
	pt, hit, err := ca.PartitionCached(ctx, st)
	if err != nil {
		s.stats.observe(time.Since(start), outcomeError)
		return nil, SourceMiss, err
	}
	tier := store.TierNone
	if hit {
		tier = st.tier
	}
	source, o := served(tier)
	resp := partitionSummary(ca, pt.Result)
	s.stats.observe(time.Since(start), o)
	return &resp, source, nil
}

// Stats snapshots the service counters, including the store's.
func (s *Service) Stats() Stats {
	st := s.stats.snapshot()
	st.Store = s.store.Stats()
	if s.adm != nil {
		st.Admission = s.adm.snapshot()
	}
	return st
}

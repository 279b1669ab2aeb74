package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
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
	// synthGroup coalesces identical concurrent synthesis and delta
	// computations onto one flight (see synthesize); partGroup,
	// simGroup and verifyGroup do the same for partitioning,
	// simulation and verification. Each runs its work under the
	// flight's context, which flight.Group.Do cancels once no request
	// waits for it.
	synthGroup  flight.Group[synthOutcome]
	partGroup   flight.Group[tiered[*PartitionResponse]]
	simGroup    flight.Group[*SimulateResponse]
	verifyGroup flight.Group[tiered[*VerifyResponse]]
	// adm is the overload gate in front of the pipeline routes
	// (nil when neither MaxInflight nor QuotaRPS is configured).
	adm *admission
}

// tiered is what a partition or verify flight shares with its
// callers: the response and the store tier that served it (TierNone
// when it was computed).
type tiered[R any] struct {
	resp R
	tier store.Tier
}

// synthOutcome is what a synthesis flight produces: the response, the
// store tier that served it (TierNone when it was computed) and the
// stage-cache split of the run that computed it (zero when served).
type synthOutcome struct {
	resp  *Response
	tier  store.Tier
	stats synth.DeltaStats
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
		cfg:   cfg,
		store: st,
		sem:   make(chan struct{}, cfg.workers()),
		adm:   newAdmission(cfg),
	}
}

// loadResponse decodes the full response cached for sk and reports the
// store tier that held it. A body decodeResponse does not accept is a
// miss: the pipeline recomputes the response and stores it again.
func (s *Service) loadResponse(sk synth.StageKey) (*Response, store.Tier, bool) {
	raw, tier, ok := s.store.Get(storeKey(sk, stageResponse))
	if !ok {
		return nil, store.TierNone, false
	}
	r, ok := decodeResponse(raw)
	if !ok {
		return nil, store.TierNone, false
	}
	return r, tier, true
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

// served maps the store tier that held a flight's result onto its
// Source and stats outcome (TierNone means the result was computed);
// a failed flight counts as an error and a joined one as coalesced.
func served(t store.Tier, coalesced bool, err error) (Source, outcome) {
	source, o := SourceMiss, outcomeMiss
	switch t {
	case store.TierMemory:
		source, o = SourceMemory, outcomeMemoryHit
	case store.TierDisk:
		source, o = SourceDisk, outcomeDiskHit
	case store.TierRemote:
		source, o = SourceRemote, outcomeRemoteHit
	}
	switch {
	case err != nil:
		o = outcomeError
	case coalesced:
		o = outcomeCoalesced
	}
	return source, o
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
// requests share one flight (see synthesize), so a coalesced waiter
// reports the flight's tier. A request whose context is already done
// fails fast; one whose context ends while it waits returns the
// context error, and the cold run stops once no identical request
// waits for it any more (flight.Group.Do), so one client leaving never
// fails another.
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
	out, coalesced, err := s.synthesize(ctx, ca)
	source, o := served(out.tier, coalesced, err)
	s.stats.observe(time.Since(start), o)
	return out.resp, source, err
}

// synthesize is the one synthesis flight, shared by Synthesize and
// Delta and keyed on the capture's stage key, so identical concurrent
// requests through either route run the pipeline once. The flight
// serves a response cached by this process, persisted by an earlier
// one or written by another instance of the fleet (the store's remote
// tier), and otherwise runs the cached pipeline tail — adopting and
// populating the partitioned and per-partition merge artifacts — and
// saves the response. A job whose paper-mode partitioning is not
// realizable fails in the merge stage's check of that partitioning,
// so a repeat fails from the stored partitioned artifact without
// running the partitioner again. The bool reports whether this call
// joined another's flight.
func (s *Service) synthesize(ctx context.Context, ca *synth.Captured) (synthOutcome, bool, error) {
	sk := ca.StageKey()
	return s.synthGroup.Do(ctx, sk.String(), func(ctx context.Context) (synthOutcome, error) {
		if r, tier, ok := s.loadResponse(sk); ok {
			return synthOutcome{resp: r, tier: tier}, nil
		}
		em, ds, err := synth.SynthesizeCaptured(ctx, ca, &stages{store: s.store})
		if err != nil {
			return synthOutcome{}, err
		}
		s.stats.observePartitions(ds.Adopted, ds.Recomputed)
		r, err := NewResponse(em.Output(), ca)
		if err != nil {
			return synthOutcome{}, err
		}
		s.saveResponse(sk, r)
		return synthOutcome{resp: r, tier: store.TierNone, stats: ds}, nil
	})
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
// — and identical concurrent partition requests share one flight, like
// Synthesize's, so a coalesced waiter reports the flight's tier.
func (s *Service) Partition(ctx context.Context, req Request) (*PartitionResponse, Source, error) {
	start := time.Now()
	ca, err := synth.Capture(req.Design, req.synthOptions())
	if err != nil {
		s.stats.observe(time.Since(start), outcomeError)
		return nil, SourceMiss, err
	}
	out, coalesced, err := s.partGroup.Do(ctx, ca.StageKey().String(), func(ctx context.Context) (tiered[*PartitionResponse], error) {
		st := &stages{store: s.store}
		pt, hit, err := ca.PartitionCached(ctx, st)
		if err != nil {
			return tiered[*PartitionResponse]{}, err
		}
		tier := store.TierNone
		if hit {
			tier = st.tier
		}
		resp := partitionSummary(ca, pt.Result)
		return tiered[*PartitionResponse]{resp: &resp, tier: tier}, nil
	})
	source, o := served(out.tier, coalesced, err)
	s.stats.observe(time.Since(start), o)
	return out.resp, source, err
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

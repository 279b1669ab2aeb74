package service

import (
	"context"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synth"
)

// VerifyJob names one verification run: a synthesis job plus the
// stimulus schedule (or random-schedule parameters) to replay on the
// original and synthesized designs.
type VerifyJob struct {
	// Request is the synthesis job whose output is verified.
	Request
	// Stimuli is the explicit schedule; nil means a deterministic
	// random schedule from Steps/Seed/SettleMillis.
	Stimuli []sim.Stimulus
	// Steps, Seed, SettleMillis parameterize the random schedule and
	// the settle interval (see synth.VerifyOptions).
	Steps        int
	Seed         int64
	SettleMillis int64
	// MaxEvents bounds each underlying simulation run; capped by the
	// service's Config.SimMaxEvents.
	MaxEvents int
}

// VerifyResponse is the wire form of a completed verification: the
// partitioning summary plus the equivalence outcome.
type VerifyResponse struct {
	PartitionResponse
	// Equivalent is true when the synthesized design matched the
	// original on every primary output at every settle point.
	Equivalent bool `json:"equivalent"`
	// Mismatches lists every disagreement observed (empty when
	// Equivalent).
	Mismatches []synth.Mismatch `json:"mismatches"`
	// StimulusHash is the content address of the replayed schedule;
	// StimuliCount its length.
	StimulusHash string `json:"stimulusHash"`
	StimuliCount int    `json:"stimuliCount"`
}

// verifyOutcome is what a verify flight produces: the response plus
// the store tier that served the verified artifact (TierNone when it
// was computed).
type verifyOutcome struct {
	resp *VerifyResponse
	tier store.Tier
}

func (j VerifyJob) verifyOptions(ctx context.Context, maxEvents int) synth.VerifyOptions {
	return synth.VerifyOptions{
		Stimuli:      j.Stimuli,
		Steps:        j.Steps,
		Seed:         j.Seed,
		SettleMillis: j.SettleMillis,
		MaxEvents:    maxEvents,
		Ctx:          ctx,
	}
}

// Verify runs the full pipeline through the Verified stage for one
// job, reporting the tier that served the verified artifact. Verified
// artifacts are stage-cached exactly like Partitioned ones: keyed by
// (fingerprint, constraints, algorithm, stimulus hash, sim semantics)
// under the "verified.v1" stage, written to the store and served from
// its tiers (across restarts when it has a disk). A warm verification
// therefore skips merge, emit, and both simulations — only capture and
// the (itself stage-cached) partition summary are rebuilt. Identical
// concurrent requests coalesce onto one computation.
func (s *Service) Verify(ctx context.Context, job VerifyJob) (*VerifyResponse, Source, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		s.stats.observeClass(time.Since(start), outcomeError, classVerify)
		return nil, SourceMiss, err
	}
	ca, err := synth.Capture(job.Design, job.synthOptions())
	if err != nil {
		s.stats.observeClass(time.Since(start), outcomeError, classVerify)
		return nil, SourceMiss, err
	}
	// Resolve the schedule once, against the original design: the
	// verify key, the flight key, and the simulation all see the same
	// concrete stimuli. The computation runs detached from the request
	// context (like Synthesize), so a client disconnect cannot poison
	// coalesced waiters; the event budget bounds runaway simulations.
	opts := job.verifyOptions(context.WithoutCancel(ctx), s.capSimEvents(job.MaxEvents)).Resolved(ca.Design)
	key := ca.VerifyStageKey(opts)

	out, coalesced, err := s.verifyGroup.Do(ctx, key.String(), func() (verifyOutcome, error) {
		// A verified artifact cached by an earlier request (or
		// process) answers from the capture stage alone.
		cache := &stages{store: s.store}
		if n, mm, ok := ca.LookupVerified(cache, opts); ok {
			resp, err := s.verifyResponse(ctx, ca, mm, opts, n)
			if err != nil {
				return verifyOutcome{}, err
			}
			return verifyOutcome{resp: resp, tier: cache.tier}, nil
		}
		pt, _, err := ca.PartitionCached(context.WithoutCancel(ctx), cache)
		if err != nil {
			return verifyOutcome{}, err
		}
		mg, err := pt.Merge()
		if err != nil {
			return verifyOutcome{}, err
		}
		em, err := mg.Emit()
		if err != nil {
			return verifyOutcome{}, err
		}
		v, _, err := em.VerifyCached(cache, opts)
		if err != nil {
			return verifyOutcome{}, err
		}
		resp := &VerifyResponse{
			PartitionResponse: partitionSummary(ca, pt.Result),
			Equivalent:        len(v.Mismatches) == 0,
			Mismatches:        mismatchesOrEmpty(v.Mismatches),
			StimulusHash:      synth.StimuliHash(opts.Stimuli),
			StimuliCount:      len(opts.Stimuli),
		}
		return verifyOutcome{resp: resp, tier: store.TierNone}, nil
	})

	source, o := served(out.tier)
	switch {
	case err != nil:
		o = outcomeError
	case coalesced:
		o = outcomeCoalesced
	}
	s.stats.observeClass(time.Since(start), o, classVerify)
	return out.resp, source, err
}

// verifyResponse assembles the response for a verified-stage hit: the
// partition summary is rebuilt from its own stage artifact (cached by
// the same cold run that cached the verification), never by running
// the partitioner twice for one answer.
func (s *Service) verifyResponse(ctx context.Context, ca *synth.Captured, mm []synth.Mismatch, opts synth.VerifyOptions, stimuli int) (*VerifyResponse, error) {
	pt, _, err := ca.PartitionCached(context.WithoutCancel(ctx), &stages{store: s.store})
	if err != nil {
		return nil, err
	}
	return &VerifyResponse{
		PartitionResponse: partitionSummary(ca, pt.Result),
		Equivalent:        len(mm) == 0,
		Mismatches:        mismatchesOrEmpty(mm),
		StimulusHash:      synth.StimuliHash(opts.Stimuli),
		StimuliCount:      stimuli,
	}, nil
}

// mismatchesOrEmpty normalizes a nil mismatch list to an empty one, so
// the wire form is always a JSON array.
func mismatchesOrEmpty(mm []synth.Mismatch) []synth.Mismatch {
	if mm == nil {
		return []synth.Mismatch{}
	}
	return mm
}

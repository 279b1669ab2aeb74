package service

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
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

func (j VerifyJob) verifyOptions(maxEvents int) synth.VerifyOptions {
	return synth.VerifyOptions{
		Stimuli:      j.Stimuli,
		Steps:        j.Steps,
		Seed:         j.Seed,
		SettleMillis: j.SettleMillis,
		MaxEvents:    maxEvents,
	}
}

// Verify runs the full pipeline through the Verified stage for one
// job, reporting the tier that served the verified artifact. Verified
// artifacts are stage-cached exactly like Partitioned ones: keyed by
// (fingerprint, constraints, algorithm, stimulus hash, sim semantics)
// under the "verified.v1" stage, written to the store and served from
// its tiers (across restarts when it has a disk). A warm verification
// therefore skips merge, emit, and both simulations — only capture and
// the (itself stage-cached) partition summary are rebuilt. A cold one
// runs the synthesis pipeline tail (synth.SynthesizeCaptured, adopting
// and writing stage artifacts like every other cold run) and then the
// verify stage. Identical concurrent requests coalesce onto one
// computation, which stops once none of them waits for it any more.
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
	// verify key, the flight key, the simulation and the response all
	// see the same concrete stimuli, hashed once here.
	opts := job.verifyOptions(s.capSimEvents(job.MaxEvents)).Resolved(ca.Design)
	key := ca.VerifyStageKey(opts)

	out, coalesced, err := s.verifyGroup.Do(ctx, key.String(), func(ctx context.Context) (tiered[*VerifyResponse], error) {
		opts := opts
		opts.Ctx = ctx
		// A verified artifact cached by an earlier request (or
		// process) answers from the capture stage alone: the partition
		// summary is rebuilt from its own stage artifact (cached by the
		// same cold run that cached the verification), never by running
		// the partitioner twice for one answer.
		cache := &stages{store: s.store}
		if n, mm, ok := ca.LookupVerified(cache, opts); ok {
			tier := cache.tier
			pt, _, err := ca.PartitionCached(ctx, cache)
			if err != nil {
				return tiered[*VerifyResponse]{}, err
			}
			return tiered[*VerifyResponse]{resp: verifyResponse(ca, pt.Result, mm, opts, n), tier: tier}, nil
		}
		em, _, err := synth.SynthesizeCaptured(ctx, ca, cache)
		if err != nil {
			return tiered[*VerifyResponse]{}, err
		}
		v, err := em.VerifyCached(cache, opts)
		if err != nil {
			return tiered[*VerifyResponse]{}, err
		}
		return tiered[*VerifyResponse]{resp: verifyResponse(ca, em.Result, v.Mismatches, opts, len(opts.Stimuli))}, nil
	})

	source, o := served(out.tier, coalesced, err)
	s.stats.observeClass(time.Since(start), o, classVerify)
	return out.resp, source, err
}

// verifyResponse assembles the wire form of a verification outcome
// over the partitioning it verified.
func verifyResponse(ca *synth.Captured, res *core.Result, mm []synth.Mismatch, opts synth.VerifyOptions, stimuli int) *VerifyResponse {
	return &VerifyResponse{
		PartitionResponse: partitionSummary(ca, res),
		Equivalent:        len(mm) == 0,
		Mismatches:        mismatchesOrEmpty(mm),
		StimulusHash:      opts.ScheduleHash(),
		StimuliCount:      stimuli,
	}
}

// mismatchesOrEmpty normalizes a nil mismatch list to an empty one, so
// the wire form is always a JSON array.
func mismatchesOrEmpty(mm []synth.Mismatch) []synth.Mismatch {
	if mm == nil {
		return []synth.Mismatch{}
	}
	return mm
}

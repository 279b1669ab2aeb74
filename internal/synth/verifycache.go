package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// StageVerified names the Verified artifact in a StageCache. The
// suffix is the artifact's wire-form version: bump it whenever the
// encoding changes shape, so entries persisted by an older binary miss
// (and are recomputed) instead of misparsing.
const StageVerified = "verified.v1"

// StimuliHash returns the canonical content hash of a stimulus
// schedule: the hex SHA-256 of its script rendering (sim.FormatScript),
// so any two ways of arriving at the same schedule — an explicit
// script, a parsed wire form, a materialized random schedule — hash
// identically. An empty schedule hashes the empty script.
func StimuliHash(stimuli []sim.Stimulus) string {
	sum := sha256.Sum256([]byte(sim.FormatScript(stimuli)))
	return hex.EncodeToString(sum[:])
}

// VerifyStageKey derives the content address of a verification run:
// the capture key extended (via StageKey.Aux) with the stimulus
// schedule hash, the settle interval, and the simulation semantics.
// Options are resolved against the capture's design first, so
// equivalent random-schedule and explicit-schedule requests share one
// address. The event budget is deliberately excluded — only successful
// outcomes are cached, and those are budget-independent.
func (ca *Captured) VerifyStageKey(opts VerifyOptions) StageKey {
	opts = opts.Resolved(ca.Design)
	k := ca.StageKey()
	// sem=delta records that Verify pins delta-cycle semantics; if a
	// future mode verifies under packet timing, its artifacts get a
	// distinct address.
	k.Aux = fmt.Sprintf("verify|stim=%s|settle=%d|sem=delta", opts.stimHash, opts.settle())
	return k
}

// verifiedWire is the persisted encoding of a verification outcome.
// The stimulus schedule itself is part of the key, not the payload.
//
//eblocks:wire verified.v1 bd0f5897
type verifiedWire struct {
	Version    int        `json:"v"`
	Stimuli    int        `json:"stimuli"`
	Mismatches []Mismatch `json:"mismatches"`
}

const verifiedWireVersion = 1

// encodeVerified renders a verification outcome in the portable wire
// form.
func encodeVerified(stimuli int, mm []Mismatch) ([]byte, error) {
	if mm == nil {
		mm = []Mismatch{}
	}
	return json.Marshal(verifiedWire{Version: verifiedWireVersion, Stimuli: stimuli, Mismatches: mm})
}

// decodeVerified rebuilds a verification outcome, rejecting unknown
// encoding versions.
func decodeVerified(raw []byte) (stimuli int, mm []Mismatch, err error) {
	var w verifiedWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return 0, nil, err
	}
	if w.Version != verifiedWireVersion {
		return 0, nil, fmt.Errorf("synth: unknown verified encoding version %d", w.Version)
	}
	return w.Stimuli, w.Mismatches, nil
}

// LookupVerified is the Verified stage's read: it consults the cache
// for a verification outcome without requiring the emitted artifact,
// so a server can answer a repeated verification from the capture
// stage alone — skipping merge, emit, and both simulations. The
// returned stimulus count echoes the schedule length recorded with the
// artifact. A nil cache, a miss, or an undecodable entry all report
// !ok.
func (ca *Captured) LookupVerified(cache StageCache, opts VerifyOptions) (stimuli int, mm []Mismatch, ok bool) {
	if cache == nil {
		return 0, nil, false
	}
	raw, ok := cache.GetStage(StageVerified, ca.VerifyStageKey(opts))
	if !ok {
		return 0, nil, false
	}
	stimuli, mm, err := decodeVerified(raw)
	if err != nil {
		// Undecodable (e.g. a torn or foreign entry): treat as a miss.
		return 0, nil, false
	}
	return stimuli, mm, true
}

// VerifyCached is the Verified stage's write: it replays shared
// stimuli on the original and synthesized designs, records output
// mismatches, and stores the outcome under StageVerified (nothing
// when the cache is nil). It does not read the cache — callers that
// can be answered by a stored outcome ask Captured.LookupVerified
// first. Only completed verifications are stored — errors
// (cancellation, event-budget exhaustion) never are.
func (e *Emitted) VerifyCached(cache StageCache, opts VerifyOptions) (*Verified, error) {
	opts = opts.Resolved(e.Design)
	mm, err := Verify(e.Design, e.Synthesized, opts)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		if raw, err := encodeVerified(len(opts.Stimuli), mm); err == nil {
			cache.PutStage(StageVerified, e.VerifyStageKey(opts), raw)
		}
	}
	return &Verified{Emitted: e, Mismatches: mm}, nil
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// stageInfeasible names the negative cache: a marker persisted under
// the full stage key of a request whose pipeline failed with the typed
// infeasibility error (synth.ErrUnrealizable). Infeasibility is a
// deterministic function of the same inputs the stage key hashes, so a
// marker is as trustworthy as a cached response — later identical
// requests fail immediately instead of re-running a pipeline known to
// fail. Only the typed error is cached; incidental failures (context
// cancellation, store corruption) never leave a marker.
const stageInfeasible = "infeasible.v1"

// infeasibleMarker is the persisted payload. The version field guards
// the schema like every other stage payload; the message is carried
// for operators inspecting the store, not trusted on the way back out
// (hits return the canonical synth.ErrUnrealizable).
//
//eblocks:wire infeasible.v1 f6bfe37e
type infeasibleMarker struct {
	V     int    `json:"v"`
	Error string `json:"error"`
}

// infeasibleHit reports whether the negative cache has a marker for
// this stage key.
func (s *Service) infeasibleHit(sk synth.StageKey) bool {
	raw, _, ok := s.store.Get(storeKey(sk, stageInfeasible))
	if !ok {
		return false
	}
	var m infeasibleMarker
	return json.Unmarshal(raw, &m) == nil && m.V == 1
}

// markInfeasible records a typed infeasibility outcome in the negative
// cache. Callers gate on errors.Is(err, synth.ErrUnrealizable).
func (s *Service) markInfeasible(sk synth.StageKey, err error) {
	raw, merr := json.Marshal(infeasibleMarker{V: 1, Error: err.Error()})
	if merr == nil {
		s.store.Put(storeKey(sk, stageInfeasible), raw)
	}
}

// noteInfeasible records a marker when err is the typed infeasibility
// error and passes err through either way, so pipeline call sites can
// wrap their error return in one expression.
func (s *Service) noteInfeasible(sk synth.StageKey, err error) error {
	if errors.Is(err, synth.ErrUnrealizable) {
		s.markInfeasible(sk, err)
	}
	return err
}

// Delta synthesizes an edited variant of a base design incrementally:
// the edit list is applied to the base, and every stage artifact the
// edits did not invalidate — the partitioning when structure is
// unchanged, each untouched partition's merge artifact — is adopted
// from the stage cache instead of recomputed. The response is
// byte-identical to what Synthesize would return for the edited
// design; DeltaStats reports the adopted/recomputed split. The edited
// design is persisted to the store under its fingerprint so the client
// can chain further edits by content address.
//
// Delta requests are not coalesced: the workload they serve is an
// interactive editing session, where identical concurrent requests do
// not arise the way they do for batch synthesis.
func (s *Service) Delta(ctx context.Context, req Request, edits []synth.Edit) (*Response, synth.DeltaStats, Source, error) {
	start := time.Now()
	fail := func(err error) (*Response, synth.DeltaStats, Source, error) {
		s.stats.observeClass(time.Since(start), outcomeError, classDelta)
		return nil, synth.DeltaStats{}, SourceMiss, err
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	base, err := synth.Capture(req.Design, req.synthOptions())
	if err != nil {
		return fail(err)
	}
	ca, err := synth.CaptureDelta(base, edits)
	if err != nil {
		return fail(err)
	}
	sk := ca.StageKey()

	// The edited design may already have a full response cached — a
	// repeated edit, or an undo back to a state synthesized earlier in
	// the session.
	if r, tier, ok := s.loadResponse(sk); ok {
		src, o := served(tier)
		s.stats.observeClass(time.Since(start), o, classDelta)
		return r, synth.DeltaStats{}, src, nil
	}
	if s.infeasibleHit(sk) {
		s.stats.observeInfeasibleHit()
		return fail(synth.ErrUnrealizable)
	}

	// The pipeline runs detached from the request context, like a
	// synthesis flight: its artifacts populate the shared stage cache
	// either way, so a mid-run disconnect should not waste the work.
	em, stats, err := synth.SynthesizeCaptured(context.WithoutCancel(ctx), ca, &stages{store: s.store})
	if err != nil {
		return fail(s.noteInfeasible(sk, err))
	}
	s.stats.observePartitions(stats.Adopted, stats.Recomputed)
	r, err := NewResponse(em.Output(), ca)
	if err != nil {
		return fail(err)
	}
	s.saveResponse(sk, r)
	s.PersistDesign(ca.Design)
	s.stats.observeClass(time.Since(start), outcomeMiss, classDelta)
	return r, stats, SourceMiss, nil
}

// DeltaJSONRequest is the wire form of an incremental synthesis
// request. The base design is named one of three ways — by content
// address ("baseFingerprint", for a design persisted by an earlier
// delta or simulation request), as netlist JSON ("design"), or as .ebk
// source ("ebk") — exactly one of the three. The knobs mean the same
// as in JSONRequest and must match the ones the base was synthesized
// under for artifacts to be adopted.
type DeltaJSONRequest struct {
	BaseFingerprint string          `json:"baseFingerprint,omitempty"`
	Design          json.RawMessage `json:"design,omitempty"`
	EBK             string          `json:"ebk,omitempty"`
	Algorithm       string          `json:"algorithm,omitempty"`
	MaxInputs       int             `json:"maxInputs,omitempty"`
	MaxOutputs      int             `json:"maxOutputs,omitempty"`
	PaperMode       bool            `json:"paperMode,omitempty"`
	Edits           []synth.Edit    `json:"edits"`
}

// toRequest resolves the base design — by fingerprint against the
// store, or inline like a JSONRequest.
func (dr DeltaJSONRequest) toRequest(s *Service) (Request, error) {
	if dr.BaseFingerprint != "" {
		if len(dr.Design) > 0 || dr.EBK != "" {
			return Request{}, fmt.Errorf("give \"baseFingerprint\" or an inline design, not both")
		}
		d, err := s.DesignByFingerprint(dr.BaseFingerprint)
		if err != nil {
			return Request{}, err
		}
		return Request{
			Design:      d,
			Algorithm:   dr.Algorithm,
			Constraints: core.Constraints{MaxInputs: dr.MaxInputs, MaxOutputs: dr.MaxOutputs},
			PaperMode:   dr.PaperMode,
		}, nil
	}
	jr := JSONRequest{
		Design:     dr.Design,
		EBK:        dr.EBK,
		Algorithm:  dr.Algorithm,
		MaxInputs:  dr.MaxInputs,
		MaxOutputs: dr.MaxOutputs,
		PaperMode:  dr.PaperMode,
	}
	return jr.toRequest()
}

// handleDelta serves POST /v1/delta. The response is a full synthesis
// Response for the edited design, plus:
//
//	X-Incremental:         adopted=<n> recomputed=<m>
//	X-Cache:               tier that served it (memory/disk/remote/miss)
//	X-Design-Fingerprint:  content address of the edited design, for
//	                       chaining the next edit by baseFingerprint
func (s *Service) handleDelta(w http.ResponseWriter, r *http.Request) {
	var dr DeltaJSONRequest
	if !decodeInto(w, r, &dr) {
		return
	}
	if len(dr.Edits) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request has no edits"))
		return
	}
	req, err := dr.toRequest(s)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownFingerprint) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	resp, stats, src, err := s.Delta(r.Context(), req, dr.Edits)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("X-Cache", src.String())
	w.Header().Set("X-Incremental", fmt.Sprintf("adopted=%d recomputed=%d", stats.Adopted, stats.Recomputed))
	w.Header().Set("X-Design-Fingerprint", resp.DesignHash)
	writeJSON(w, resp)
}

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

// Delta synthesizes an edited variant of a base design incrementally:
// the edit list is applied to the base (synth.CaptureDelta), and the
// edited capture runs Synthesize's flight, so every stage artifact the
// edits did not invalidate — the partitioning when structure is
// unchanged, each untouched partition's merge artifact — is adopted
// from the stage cache instead of recomputed. The response is
// byte-identical to what Synthesize would return for the edited
// design; DeltaStats reports the adopted/recomputed split of the run
// that computed it (zero when the response was served from the
// store). Identical concurrent edits — and a concurrent Synthesize of
// the edited design — coalesce onto one flight, and a coalesced or
// cached delta reports the flight's tier and split. After every
// success the edited design is persisted to the store under its
// fingerprint, so the client can chain further edits by content
// address.
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
	out, coalesced, err := s.synthesize(ctx, ca)
	if err == nil {
		s.PersistDesign(ca.StageKey().Fingerprint, ca.Design)
	}
	source, o := served(out.tier, coalesced, err)
	s.stats.observeClass(time.Since(start), o, classDelta)
	return out.resp, out.stats, source, err
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

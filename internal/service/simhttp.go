package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// SimulateJSONRequest is the wire form of a simulation request. The
// design is given inline ("design" JSON wire form or "ebk" text) or by
// content address ("fingerprint", a design persisted by an earlier
// request) — exactly one of the three.
type SimulateJSONRequest struct {
	Design      json.RawMessage `json:"design,omitempty"`
	EBK         string          `json:"ebk,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	// Script is the stimulus schedule in the sim.ParseScript text
	// format ("at <ms> set <block> <value>", one event per line).
	Script string `json:"script,omitempty"`
	// Until is the horizon in ms; 0 means run to quiescence.
	Until int64 `json:"until,omitempty"`
	// Config tunes the simulator (sim.Config wire form). MaxEvents is
	// capped server-side.
	Config sim.Config `json:"config"`
}

// VerifyJSONRequest is the wire form of a verification request: a
// synthesis request plus the stimulus schedule to replay (explicit
// "script", or "steps"/"seed" for the deterministic random schedule).
type VerifyJSONRequest struct {
	JSONRequest
	Fingerprint  string `json:"fingerprint,omitempty"`
	Script       string `json:"script,omitempty"`
	Steps        int    `json:"steps,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	SettleMillis int64  `json:"settleMillis,omitempty"`
	MaxEvents    int    `json:"maxEvents,omitempty"`
}

// resolveDesign turns the design/ebk/fingerprint triple into a design
// and its fingerprint: exactly one source must be set. Inline designs
// are hashed once and persisted to the store (stage "design.v1") so
// later requests can use the returned fingerprint instead; a
// by-fingerprint request returns the content address it named.
func (s *Service) resolveDesign(design json.RawMessage, ebk, fingerprint string) (*netlist.Design, string, error) {
	set := 0
	for _, ok := range []bool{len(design) > 0, ebk != "", fingerprint != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, "", fmt.Errorf("give exactly one of \"design\" (JSON), \"ebk\" (text) or \"fingerprint\" (content address), got %d", set)
	}
	if fingerprint != "" {
		d, err := s.DesignByFingerprint(fingerprint)
		return d, fingerprint, err
	}
	d, err := decodeDesign(design, ebk)
	if err != nil {
		return nil, "", err
	}
	fp := netlist.Fingerprint(d)
	s.PersistDesign(fp, d)
	return d, fp, nil
}

// toJob decodes the wire request into a SimulateJob and the design's
// fingerprint.
func (jr SimulateJSONRequest) toJob(s *Service) (SimulateJob, string, error) {
	d, fp, err := s.resolveDesign(jr.Design, jr.EBK, jr.Fingerprint)
	if err != nil {
		return SimulateJob{}, "", err
	}
	var stimuli []sim.Stimulus
	if jr.Script != "" {
		if stimuli, err = sim.ParseScript(jr.Script); err != nil {
			return SimulateJob{}, "", err
		}
	}
	if jr.Until < 0 {
		return SimulateJob{}, "", fmt.Errorf("negative horizon %d", jr.Until)
	}
	return SimulateJob{Design: d, Stimuli: stimuli, Until: jr.Until, Config: jr.Config}, fp, nil
}

// toJob decodes the wire request into a VerifyJob.
func (jr VerifyJSONRequest) toJob(s *Service) (VerifyJob, error) {
	d, _, err := s.resolveDesign(jr.JSONRequest.Design, jr.EBK, jr.Fingerprint)
	if err != nil {
		return VerifyJob{}, err
	}
	req := Request{
		Design:      d,
		Algorithm:   jr.Algorithm,
		Constraints: core.Constraints{MaxInputs: jr.MaxInputs, MaxOutputs: jr.MaxOutputs},
		PaperMode:   jr.PaperMode,
	}
	job := VerifyJob{
		Request:      req,
		Steps:        jr.Steps,
		Seed:         jr.Seed,
		SettleMillis: jr.SettleMillis,
		MaxEvents:    jr.MaxEvents,
	}
	if jr.Script != "" {
		if job.Stimuli, err = sim.ParseScript(jr.Script); err != nil {
			return VerifyJob{}, err
		}
	}
	return job, nil
}

// handleSimulate serves POST /v1/simulate. With ?stream=ndjson the
// trace streams out incrementally with progress heartbeats and
// optional checkpoints (?checkpointEvery=N ms of simulation time);
// with ?format=vcd it streams as a Value Change Dump document through
// the incremental writer. Both streaming forms run in bounded memory;
// the default buffered form returns the complete JSON response.
func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var jr SimulateJSONRequest
	if !decodeInto(w, r, &jr) {
		return
	}
	switch stream := r.URL.Query().Get("stream"); stream {
	case "ndjson":
		s.handleSimulateStream(w, r, jr)
		return
	case "":
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unsupported stream=%q: want \"ndjson\"", stream))
		return
	}
	if r.URL.Query().Get("format") == "vcd" {
		s.handleSimulateVCD(w, r, jr)
		return
	}
	job, fp, err := jr.toJob(s)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	resp, coalesced, err := s.simulate(r.Context(), job, fp)
	if err != nil {
		writeSimError(w, err)
		return
	}
	if coalesced {
		w.Header().Set("X-Coalesced", "true")
	}
	writeJSON(w, resp)
}

// handleVerify serves POST /v1/verify.
func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var jr VerifyJSONRequest
	if !decodeInto(w, r, &jr) {
		return
	}
	job, err := jr.toJob(s)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	resp, src, err := s.Verify(r.Context(), job)
	if err != nil {
		writeSimError(w, err)
		return
	}
	w.Header().Set("X-Cache", src.String())
	writeJSON(w, resp)
}

// writeResolveError maps request-shaping failures: an unknown
// fingerprint is 404 (the address names nothing here), everything else
// is a malformed request (400).
func writeResolveError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnknownFingerprint) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// writeSimError maps simulation/verification failures to 422. An
// exhausted event budget additionally carries the typed
// sim.BudgetError as a structured "budget" field, and an exhausted
// trace budget the typed sim.TraceLimitError as "traceLimit", so
// clients can distinguish an oscillating design from a chatty one
// without parsing the message.
func writeSimError(w http.ResponseWriter, err error) {
	var be *sim.BudgetError
	if errors.As(err, &be) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]any{
			"error":  err.Error(),
			"budget": be,
		})
		return
	}
	var tle *sim.TraceLimitError
	if errors.As(err, &tle) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]any{
			"error":      err.Error(),
			"traceLimit": tle,
		})
		return
	}
	writeError(w, http.StatusUnprocessableEntity, err)
}

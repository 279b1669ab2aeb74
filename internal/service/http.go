package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/store"
)

// MaxRequestBody bounds request payloads (a 465-inner-block design
// serializes to well under 1 MB; 16 MB leaves generous headroom).
// Exported so front ends that canonicalize request bodies before
// forwarding them (the fleet router) enforce the same cap.
const MaxRequestBody = 16 << 20

// JSONRequest is the wire form of a synthesis/partition request. The
// design is given either in the netlist JSON wire form ("design") or
// as .ebk source ("ebk") — exactly one of the two.
type JSONRequest struct {
	Design     json.RawMessage `json:"design,omitempty"`
	EBK        string          `json:"ebk,omitempty"`
	Algorithm  string          `json:"algorithm,omitempty"`
	MaxInputs  int             `json:"maxInputs,omitempty"`
	MaxOutputs int             `json:"maxOutputs,omitempty"`
	PaperMode  bool            `json:"paperMode,omitempty"`
}

// BatchRequest is the wire form of a batch synthesis request.
type BatchRequest struct {
	Requests []JSONRequest `json:"requests"`
}

// BatchResponse is the wire form of a batch synthesis result,
// index-aligned with the request list.
type BatchResponse struct {
	Responses []*Response `json:"responses"`
}

// toRequest decodes the design payload against a fresh standard
// catalog.
func (jr JSONRequest) toRequest() (Request, error) {
	var (
		d   *netlist.Design
		err error
	)
	switch {
	case len(jr.Design) > 0 && jr.EBK != "":
		return Request{}, fmt.Errorf("give either \"design\" (JSON) or \"ebk\" (text), not both")
	case len(jr.Design) > 0:
		d, err = netlist.UnmarshalJSON(jr.Design, block.Standard())
	case jr.EBK != "":
		d, err = netlist.Parse(jr.EBK, block.Standard())
	default:
		return Request{}, fmt.Errorf("request has no design: set \"design\" (JSON) or \"ebk\" (text)")
	}
	if err != nil {
		return Request{}, err
	}
	return Request{
		Design:      d,
		Algorithm:   jr.Algorithm,
		Constraints: core.Constraints{MaxInputs: jr.MaxInputs, MaxOutputs: jr.MaxOutputs},
		PaperMode:   jr.PaperMode,
	}, nil
}

// Handler returns the eblocksd HTTP API over this service:
//
//	POST /v1/synthesize  — synthesize one design (cached two-tier)
//	POST /v1/delta       — incremental synthesis: base + edit list
//	POST /v1/partition   — partition only, no merge/emit
//	POST /v1/batch       — synthesize many designs over the worker pool
//	POST /v1/simulate    — run the event-driven simulator
//	                       (?stream=ndjson streams the trace with
//	                       heartbeats and ?checkpointEvery=N snapshots;
//	                       ?format=vcd streams a Value Change Dump)
//	POST /v1/simulate/resume — continue a checkpointed run from the
//	                       nearest persisted simstate.v1 snapshot
//	POST /v1/verify      — full pipeline through the Verified stage
//	GET  /v1/algorithms  — registered partitioner names
//	GET  /v1/stats       — service + store counters, latency quantiles
//	GET  /v1/store/{id}  — shared-origin artifact fetch (fleet cache)
//	PUT  /v1/store/{id}  — shared-origin artifact upload (fleet cache)
//	GET  /metrics        — the same counters, Prometheus text format
//	GET  /healthz        — liveness probe
//
// Synthesize, partition, delta and verify responses carry an X-Cache
// header naming the store tier that served them: "memory", "disk",
// "remote" (fleet origin) or "miss" (computed by this request). See
// docs/API.md for the full reference.
//
// With admission control configured (Config.MaxInflight and/or
// Config.QuotaRPS), every pipeline route above — the POSTs — sits
// behind the overload gate: requests beyond a client's quota or past
// the bounded pipeline queue are shed with 429 + Retry-After instead
// of queueing unboundedly. The observability routes (stats, metrics,
// health, algorithms) and the store protocol stay ungated so the
// service remains inspectable while saturated.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/synthesize", s.admitted(func(w http.ResponseWriter, r *http.Request) {
		jr, ok := decodeRequest(w, r)
		if !ok {
			return
		}
		req, err := jr.toRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp, src, err := s.Synthesize(r.Context(), req)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		w.Header().Set("X-Cache", src.String())
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/partition", s.admitted(func(w http.ResponseWriter, r *http.Request) {
		jr, ok := decodeRequest(w, r)
		if !ok {
			return
		}
		req, err := jr.toRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp, src, err := s.Partition(r.Context(), req)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		w.Header().Set("X-Cache", src.String())
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/batch", s.admitted(func(w http.ResponseWriter, r *http.Request) {
		var br BatchRequest
		if !decodeInto(w, r, &br) {
			return
		}
		reqs := make([]Request, len(br.Requests))
		for i, jr := range br.Requests {
			req, err := jr.toRequest()
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
				return
			}
			reqs[i] = req
		}
		resps, err := s.SynthesizeAll(r.Context(), reqs)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, BatchResponse{Responses: resps})
	}))
	mux.HandleFunc("/v1/delta", s.admitted(s.handleDelta))
	mux.HandleFunc("/v1/simulate", s.admitted(s.handleSimulate))
	mux.HandleFunc("/v1/simulate/resume", s.admitted(s.handleSimulateResume))
	mux.HandleFunc("/v1/verify", s.admitted(s.handleVerify))
	mux.HandleFunc("/v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string][]string{"algorithms": core.Algorithms()})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.Handle("/v1/store/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The shared-origin artifact routes (GET/PUT /v1/store/{id}),
		// served by the store itself so any instance with a disk store
		// can act as its fleet's cache origin (a memory-only store
		// answers 404); optionally gated by the fleet's shared secret.
		h := store.AuthMiddleware(s.cfg.StoreAuthToken, s.store.RemoteHandler())
		http.StripPrefix("/v1/store", h).ServeHTTP(w, r)
	}))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
	})
	return mux
}

func decodeRequest(w http.ResponseWriter, r *http.Request) (JSONRequest, bool) {
	var jr JSONRequest
	ok := decodeInto(w, r, &jr)
	return jr, ok
}

// decodeInto admits a POST body (size-capped) into v, writing the
// error response itself when admission fails.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

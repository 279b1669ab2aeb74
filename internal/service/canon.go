package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/netlist"
)

// InlineFingerprint resolves a request's design reference — an inline
// netlist JSON document, .ebk source, or an already-computed content
// address — to the design's canonical fingerprint without a Service:
// the small request-canonicalization step a stateless front end (the
// fleet router) shares with the workers it routes to. Preference
// order: an explicit fingerprint is returned as-is (it IS the content
// address), else the inline design is decoded against the standard
// catalog and hashed with netlist.Fingerprint, else the .ebk source
// is parsed and hashed. An empty triple (or an undecodable inline
// design) is an error; full request validation stays the worker's
// job.
func InlineFingerprint(design json.RawMessage, ebk, fingerprint string) (string, error) {
	switch {
	case fingerprint != "":
		return fingerprint, nil
	case len(design) == 0 && ebk == "":
		return "", fmt.Errorf("request names no design: set \"design\", \"ebk\" or a fingerprint")
	}
	d, err := decodeDesign(design, ebk)
	if err != nil {
		return "", err
	}
	return netlist.Fingerprint(d), nil
}

// RoutingKey computes the canonical shard-routing key of one pipeline
// request body: the design fingerprint the request addresses, so every
// request touching the same design's artifacts lands on the same
// worker regardless of which route or wire form carries it. Delta
// requests key on the BASE design's fingerprint (the artifacts being
// adopted live under the base's partition keys), resume requests on
// the checkpointed design's fingerprint. A body that cannot be
// canonicalized (malformed JSON, no design) reports an error; callers
// fall back to an opaque body hash so even junk routes
// deterministically — and gets the worker's own canonical 4xx.
func RoutingKey(path string, body []byte) (string, error) {
	switch path {
	case "/v1/synthesize", "/v1/partition":
		var jr JSONRequest
		if err := json.Unmarshal(body, &jr); err != nil {
			return "", err
		}
		return InlineFingerprint(jr.Design, jr.EBK, "")
	case "/v1/verify":
		var jr VerifyJSONRequest
		if err := json.Unmarshal(body, &jr); err != nil {
			return "", err
		}
		return InlineFingerprint(jr.JSONRequest.Design, jr.EBK, jr.Fingerprint)
	case "/v1/simulate":
		var jr SimulateJSONRequest
		if err := json.Unmarshal(body, &jr); err != nil {
			return "", err
		}
		return InlineFingerprint(jr.Design, jr.EBK, jr.Fingerprint)
	case "/v1/simulate/resume":
		var jr ResumeJSONRequest
		if err := json.Unmarshal(body, &jr); err != nil {
			return "", err
		}
		return InlineFingerprint(nil, "", jr.Fingerprint)
	case "/v1/delta":
		var dr DeltaJSONRequest
		if err := json.Unmarshal(body, &dr); err != nil {
			return "", err
		}
		return InlineFingerprint(dr.Design, dr.EBK, dr.BaseFingerprint)
	default:
		return "", fmt.Errorf("no routing key for %s", path)
	}
}

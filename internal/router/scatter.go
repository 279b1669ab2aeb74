package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// BatchRecord is one line of the router's /v1/batch NDJSON response.
// Result records (no Type) carry the worker's response — or its
// error — for one request index; the single trailing control record
// has Type "done" with the run's totals. Records are emitted as each
// shard's sub-batch completes, so results arrive incrementally and
// out of index order; Index reassembles them.
type BatchRecord struct {
	// Type is "" for result records, "done" for the final summary.
	Type string `json:"type,omitempty"`
	// Index is the request's position in the client's batch (result
	// records; pointer so index 0 survives omitempty semantics).
	Index *int `json:"index,omitempty"`
	// Shard served the request; RetriedShard is the shard that failed
	// first when the result came from a sibling retry.
	Shard        string `json:"shard,omitempty"`
	RetriedShard string `json:"retriedShard,omitempty"`
	// Response is the worker's synthesis response, compacted (result
	// records on success).
	Response json.RawMessage `json:"response,omitempty"`
	// Status/Error report a failed request: the worker's HTTP status
	// and error message, or 502 with the router's transport error.
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Requests/OK/Failed summarize the run (done record).
	Requests int `json:"requests,omitempty"`
	OK       int `json:"ok,omitempty"`
	Failed   int `json:"failed,omitempty"`

	// routerErr marks an error record the router originated, as
	// opposed to a worker verdict passed through; never encoded.
	routerErr bool
}

// rawBatch mirrors service.BatchRequest/BatchResponse with the
// per-item payloads kept raw, so the router never re-encodes what a
// worker (or client) produced.
type rawBatch struct {
	Requests []json.RawMessage `json:"requests"`
}

type rawBatchResponse struct {
	Responses []json.RawMessage `json:"responses"`
}

// batchGroup is one shard's slice of a scattered batch: the original
// indices and their raw request payloads, in index order.
type batchGroup struct {
	indices []int
	reqs    []json.RawMessage
}

// handleBatch serves POST /v1/batch by scatter-gather: each request
// in the batch is canonicalized to its design's routing key, the
// batch is partitioned into per-owner sub-batches, and the merged
// results stream back as NDJSON result records in completion order
// (never buffered — a thousand-design batch starts yielding results
// as soon as the first sub-batch lands). A sub-batch whose shard dies
// is retried once, re-partitioned over each item's rendezvous
// sibling; items that still fail get per-index error records with
// status 502. A batch that cannot be decoded at all is forwarded
// whole to one shard so the client receives the worker's canonical
// 4xx.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var br rawBatch
	if err := json.Unmarshal(body, &br); err != nil || len(br.Requests) == 0 {
		// Undecodable or empty: one shard, buffered pass-through; the
		// worker's own validation answers.
		rt.forward(w, r, body, bodyKey(body), false)
		return
	}

	healthy := rt.healthyShards()
	groups := map[string]*batchGroup{}
	for i, raw := range br.Requests {
		owner := Owner(routeKey("/v1/synthesize", raw), healthy)
		g := groups[owner]
		if g == nil {
			g = &batchGroup{}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
		g.reqs = append(g.reqs, raw)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.Header().Set("X-Fanout", fmt.Sprintf("%d", len(groups)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// One writer: records are whole lines emitted under the mutex, so
	// concurrent sub-batches can never tear or interleave records.
	var wmu sync.Mutex
	var okCount, failCount int
	var routerFailed bool
	emit := func(rec BatchRecord) {
		b, err := json.Marshal(rec)
		if err != nil {
			return
		}
		wmu.Lock()
		if rec.Type == "" {
			if rec.Error == "" {
				okCount++
			} else {
				failCount++
			}
		}
		routerFailed = routerFailed || rec.routerErr
		w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
		wmu.Unlock()
	}

	var wg sync.WaitGroup
	for owner, g := range groups {
		wg.Add(1)
		go func(owner string, g *batchGroup) {
			defer wg.Done()
			rt.runGroup(r, owner, g, "", emit)
		}(owner, g)
	}
	wg.Wait()

	emit(BatchRecord{Type: "done", Requests: len(br.Requests), OK: okCount, Failed: failCount})
	rt.stats.observeBatch(time.Since(start), len(groups), routerFailed)
}

// runGroup sends one shard's sub-batch and emits its result records.
// retriedFrom is empty on the first attempt; on a transport failure
// the group re-partitions over each item's sibling (rendezvous rank
// with the dead shard excluded) and recurses exactly once.
func (rt *Router) runGroup(r *http.Request, owner string, g *batchGroup, retriedFrom string, emit func(BatchRecord)) {
	s := rt.shardByName(owner)
	subBody, err := json.Marshal(rawBatch{Requests: g.reqs})
	if err != nil {
		rt.emitGroupError(g, owner, retriedFrom, fmt.Sprintf("marshal sub-batch: %v", err), emit)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL+"/v1/batch", bytes.NewReader(subBody))
	if err != nil {
		rt.emitGroupError(g, owner, retriedFrom, err.Error(), emit)
		return
	}
	copyHeaders(req.Header, r.Header)
	req.Header.Set("Content-Type", "application/json")

	resp, derr := rt.client.Do(req)
	var respBody []byte
	if derr == nil {
		respBody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			derr = err
		}
	}
	if derr != nil {
		// Transport failure: mark the shard down. If the client is
		// still there and this was the first attempt, re-partition the
		// group over each item's sibling and retry once.
		s.observe(true)
		if r.Context().Err() != nil {
			rt.emitGroupError(g, owner, retriedFrom, derr.Error(), emit)
			return
		}
		s.markFailureFor(time.Now(), rt.opts.cooldown())
		if retriedFrom != "" {
			rt.emitGroupError(g, owner, retriedFrom, derr.Error(), emit)
			return
		}
		s.observeRetry()
		rt.retryGroup(r, owner, g, derr, emit)
		return
	}
	s.observe(false)

	if resp.StatusCode != http.StatusOK {
		// The worker rejected the whole sub-batch (its batch API is
		// all-or-nothing): surface its status and message per item.
		// Deterministic worker verdicts are not retried.
		msg := workerErrorMessage(respBody)
		for _, idx := range g.indices {
			i := idx
			emit(BatchRecord{Index: &i, Shard: owner, RetriedShard: retriedFrom, Status: resp.StatusCode, Error: msg})
		}
		return
	}
	var rbr rawBatchResponse
	if err := json.Unmarshal(respBody, &rbr); err != nil || len(rbr.Responses) != len(g.indices) {
		rt.emitGroupError(g, owner, retriedFrom,
			fmt.Sprintf("shard %s returned a malformed batch response", owner), emit)
		return
	}
	for j, idx := range g.indices {
		var compact bytes.Buffer
		if err := json.Compact(&compact, rbr.Responses[j]); err != nil {
			i := idx
			emit(BatchRecord{Index: &i, Shard: owner, RetriedShard: retriedFrom,
				Status: http.StatusBadGateway, Error: "malformed response payload", routerErr: true})
			continue
		}
		i := idx
		emit(BatchRecord{Index: &i, Shard: owner, RetriedShard: retriedFrom,
			Response: json.RawMessage(compact.Bytes())})
	}
}

// retryGroup re-partitions a failed group's items over their
// rendezvous siblings (healthy shards minus the failed owner) and
// runs each sub-group as a retry (depth 1: a second failure emits
// error records).
func (rt *Router) retryGroup(r *http.Request, failed string, g *batchGroup, cause error, emit func(BatchRecord)) {
	rt.stats.observeRetryLaunched()
	survivors := make([]string, 0, len(rt.shards))
	for _, name := range rt.healthyShards() {
		if name != failed {
			survivors = append(survivors, name)
		}
	}
	if len(survivors) == 0 {
		rt.emitGroupError(g, failed, "", cause.Error(), emit)
		return
	}
	regrouped := map[string]*batchGroup{}
	for j, idx := range g.indices {
		sib := Owner(routeKey("/v1/synthesize", g.reqs[j]), survivors)
		sg := regrouped[sib]
		if sg == nil {
			sg = &batchGroup{}
			regrouped[sib] = sg
		}
		sg.indices = append(sg.indices, idx)
		sg.reqs = append(sg.reqs, g.reqs[j])
	}
	var wg sync.WaitGroup
	for sib, sg := range regrouped {
		wg.Add(1)
		go func(sib string, sg *batchGroup) {
			defer wg.Done()
			rt.runGroup(r, sib, sg, failed, emit)
		}(sib, sg)
	}
	wg.Wait()
}

// emitGroupError emits one router-originated 502 record per item of a
// failed group.
func (rt *Router) emitGroupError(g *batchGroup, shard, retriedFrom, msg string, emit func(BatchRecord)) {
	for _, idx := range g.indices {
		i := idx
		emit(BatchRecord{Index: &i, Shard: shard, RetriedShard: retriedFrom, Status: http.StatusBadGateway, Error: msg, routerErr: true})
	}
}

// workerErrorMessage extracts the "error" field of a worker's JSON
// error body, falling back to the raw body (trimmed) when it isn't
// the expected shape.
func workerErrorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	msg := string(bytes.TrimSpace(body))
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return msg
}

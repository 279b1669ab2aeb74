package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Options configure a Router.
type Options struct {
	// Workers are the base URLs of the eblocksd instances to shard
	// across (at least one), e.g. "http://10.0.0.1:8080". Scheme-less
	// entries get "http://". Shard names (the X-Shard label and the
	// rendezvous identity) are the URLs sans scheme; they must be
	// unique.
	Workers []string
	// ProbeInterval is the /healthz probe period (default 500ms).
	ProbeInterval time.Duration
	// Cooldown is how long an unhealthy shard stays out of rotation
	// after its last observed failure; it rejoins on the first
	// successful probe at or after the cooldown (default 2s).
	Cooldown time.Duration
	// Timeout bounds each buffered proxy attempt end to end, and the
	// response-header wait of streaming attempts (default 60s;
	// streaming bodies are unbounded by design — long simulations are
	// the point of streaming).
	Timeout time.Duration
	// ProbeTimeout bounds one /healthz round trip (default 1s).
	ProbeTimeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one with
	// pooling sized for the fleet.
	Client *http.Client
}

func (o Options) probeInterval() time.Duration {
	if o.ProbeInterval <= 0 {
		return 500 * time.Millisecond
	}
	return o.ProbeInterval
}

func (o Options) cooldown() time.Duration {
	if o.Cooldown <= 0 {
		return 2 * time.Second
	}
	return o.Cooldown
}

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 60 * time.Second
	}
	return o.Timeout
}

func (o Options) probeTimeout() time.Duration {
	if o.ProbeTimeout <= 0 {
		return time.Second
	}
	return o.ProbeTimeout
}

// Router is the sharded fleet's stateless front end. Safe for
// concurrent use; see the package comment for the design.
type Router struct {
	opts   Options
	shards []*shard
	byName map[string]*shard
	client *http.Client
	stats  metrics

	probeOnce sync.Once
	closeOnce sync.Once
	done      chan struct{}
}

// New builds a Router over the given workers. Every shard starts
// healthy (the fleet is assumed up until a probe or a proxied request
// says otherwise); call StartProbes to begin active membership.
func New(opts Options) (*Router, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("router: no workers configured")
	}
	rt := &Router{opts: opts, byName: map[string]*shard{}, done: make(chan struct{})}
	for _, w := range opts.Workers {
		base := strings.TrimRight(strings.TrimSpace(w), "/")
		if base == "" {
			return nil, fmt.Errorf("router: empty worker URL")
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		name := base
		if i := strings.Index(name, "://"); i >= 0 {
			name = name[i+3:]
		}
		if rt.byName[name] != nil {
			return nil, fmt.Errorf("router: duplicate worker %q", name)
		}
		s := &shard{ShardStats: ShardStats{Name: name, URL: base, Healthy: true}}
		rt.shards = append(rt.shards, s)
		rt.byName[name] = s
	}
	rt.client = opts.Client
	if rt.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 4 * len(rt.shards)
		tr.MaxIdleConnsPerHost = 4
		tr.ResponseHeaderTimeout = opts.timeout()
		rt.client = &http.Client{Transport: tr}
	}
	return rt, nil
}

// routerError is the typed JSON body of every error the router
// originates itself (as opposed to passing through from a worker):
// 502 when the owning shard and its sibling both failed, 400 when the
// request could not be admitted at all.
type routerError struct {
	// Error describes the failure.
	Error string `json:"error"`
	// Shard is the worker whose failure produced the error;
	// RetriedShard is the worker that failed FIRST when a sibling
	// retry was attempted (mirroring the X-Retried-Shard header).
	Shard        string `json:"shard,omitempty"`
	RetriedShard string `json:"retriedShard,omitempty"`
}

// writeRouterError emits a typed router-originated error response.
func writeRouterError(w http.ResponseWriter, status int, re routerError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(re)
}

// hopHeaders are the hop-by-hop headers stripped in both directions.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyHeaders copies end-to-end headers from src into dst.
func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		skip := false
		for _, h := range hopHeaders {
			if http.CanonicalHeaderKey(k) == h {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// Handler returns the router's HTTP front end:
//
//	POST /v1/synthesize       — proxied to the design's owner shard
//	POST /v1/partition        — proxied (same key as synthesize)
//	POST /v1/delta            — pinned to the BASE design's owner
//	POST /v1/verify           — proxied by design fingerprint
//	POST /v1/simulate         — proxied; ?stream=ndjson and ?format=vcd
//	                            pass through incrementally
//	POST /v1/simulate/resume  — pinned to the checkpointed design's owner
//	POST /v1/batch            — scatter-gathered across shards; the
//	                            merged results stream back as NDJSON
//	GET  /v1/algorithms       — proxied to any healthy shard
//	GET  /v1/stats            — the ROUTER's own counters
//	GET  /metrics             — the router's Prometheus exposition
//	GET  /healthz             — router liveness + healthy-shard count
//
// Proxied responses carry X-Shard (the worker that served them) and,
// when the owner failed and the rendezvous sibling absorbed the
// request, X-Retried-Shard (the worker that failed). A request whose
// owner and sibling both fail gets a typed 502 JSON error.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, route := range []string{
		"/v1/synthesize", "/v1/partition", "/v1/verify",
		"/v1/delta", "/v1/simulate", "/v1/simulate/resume",
	} {
		route := route
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			rt.dispatch(w, r, route)
		})
	}
	mux.HandleFunc("/v1/batch", rt.handleBatch)
	mux.HandleFunc("/v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		rt.forward(w, r, nil, "algorithms", false)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeStatsJSON(w, rt.Stats())
	})
	mux.Handle("/metrics", obs.Handler(func() string { return promText(rt.Stats()) }))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy := 0
		for _, s := range rt.shards {
			if s.isHealthy() {
				healthy++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\n  \"ok\": true,\n  \"shards\": %d,\n  \"healthyShards\": %d\n}\n", len(rt.shards), healthy)
	})
	return mux
}

// readBody admits one request body under the shared cap, writing the
// error response itself when admission fails.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, routerError{Error: "use POST"})
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxRequestBody+1))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, routerError{Error: fmt.Sprintf("reading request: %v", err)})
		return nil, false
	}
	if len(body) > service.MaxRequestBody {
		writeRouterError(w, http.StatusBadRequest, routerError{Error: fmt.Sprintf("request body exceeds %d bytes", service.MaxRequestBody)})
		return nil, false
	}
	return body, true
}

// bodyKey is the fallback routing key for bodies that cannot be
// canonicalized: an opaque content hash, so even malformed requests
// route deterministically and receive the worker's own canonical 4xx.
func bodyKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "body:" + hex.EncodeToString(sum[:])
}

// dispatch proxies one single-shard pipeline route: canonicalize the
// body to its routing key, rank the healthy shards, forward to the
// owner, and retry once on the sibling if the owner fails before any
// response bytes reached the client.
func (rt *Router) dispatch(w http.ResponseWriter, r *http.Request, route string) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	streaming := route == "/v1/simulate/resume" ||
		(route == "/v1/simulate" && (r.URL.Query().Get("stream") == "ndjson" || r.URL.Query().Get("format") == "vcd"))
	rt.forward(w, r, body, routeKey(route, body), streaming)
}

// routeKey canonicalizes a pipeline request body to its routing key
// (service.RoutingKey), falling back to its opaque hash so even junk
// routes deterministically. A batch item routes as a /v1/synthesize
// body.
func routeKey(route string, body []byte) string {
	if key, err := service.RoutingKey(route, body); err == nil {
		return key
	}
	return bodyKey(body)
}

// attempt is the outcome of one proxied try against one shard.
type attempt struct {
	resp *http.Response // nil on transport failure
	err  error
}

// try sends the request to one shard. A non-nil response may still be
// any HTTP status — only transport-level failures populate err.
func (rt *Router) try(ctx context.Context, s *shard, r *http.Request, body []byte) attempt {
	req, err := http.NewRequestWithContext(ctx, r.Method, s.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return attempt{err: err}
	}
	copyHeaders(req.Header, r.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		return attempt{err: err}
	}
	return attempt{resp: resp}
}

// forward proxies one request to the key's owner shard with a single
// sibling retry. body is nil for GET routes (the body, if any, is not
// re-readable then — fine, the only GET proxied is /v1/algorithms).
// streaming selects incremental pass-through (NDJSON line framing or
// raw VCD copy) over buffered forwarding.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, key string, streaming bool) {
	start := time.Now()
	rank := Rank(key, rt.healthyShards())
	var lastErr error
	var retriedFrom string
	for i, name := range rank {
		if i >= 2 {
			break // owner + one sibling, never more
		}
		s := rt.shardByName(name)
		actx := r.Context()
		var cancel context.CancelFunc = func() {}
		if !streaming {
			actx, cancel = context.WithTimeout(actx, rt.opts.timeout())
		}
		at := rt.try(actx, s, r, body)
		if at.err != nil {
			cancel()
			// Transport-level failure: the worker is unreachable (or
			// died mid-response-header). Mark it unhealthy and try the
			// sibling — safe for every pipeline route because the
			// workers share one artifact namespace, so a retried
			// computation lands on (or populates) the same cache
			// entries. But never retry a failure the CLIENT caused:
			// a cancelled inbound request is not a shard failure.
			if r.Context().Err() != nil {
				s.observe(false)
				rt.stats.observeRequest(time.Since(start), true)
				return
			}
			s.observe(true)
			s.markFailureFor(time.Now(), rt.opts.cooldown())
			lastErr = at.err
			if i == 0 && len(rank) > 1 {
				retriedFrom = name
				s.observeRetry()
				rt.stats.observeRetryLaunched()
				continue
			}
			break
		}
		s.observe(false)
		failed := false
		func() {
			defer at.resp.Body.Close()
			defer cancel()
			if streaming && at.resp.StatusCode == http.StatusOK {
				rt.streamThrough(w, r, at.resp, s, retriedFrom)
			} else {
				failed = !rt.bufferThrough(w, at.resp, s, retriedFrom)
			}
		}()
		rt.stats.observeRequest(time.Since(start), failed)
		return
	}
	// Owner and sibling both unreachable (or the fleet is down to one
	// shard and it failed): typed 502.
	re := routerError{Error: fmt.Sprintf("all shards failed: %v", lastErr), RetriedShard: retriedFrom}
	if n := len(rank); n > 0 {
		re.Shard = rank[min(1, n-1)]
	}
	rt.stats.observeRequest(time.Since(start), true)
	writeRouterError(w, http.StatusBadGateway, re)
}

// bufferThrough forwards a complete worker response: headers, status,
// body. The body is read fully before the first client byte so a
// mid-body transport failure converts into a typed 502 instead of a
// torn document. It reports false when it answered that 502, a
// router-originated failure the caller counts.
func (rt *Router) bufferThrough(w http.ResponseWriter, resp *http.Response, s *shard, retriedFrom string) bool {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		s.mu.Lock()
		s.Errors++
		s.mu.Unlock()
		s.markFailureFor(time.Now(), rt.opts.cooldown())
		writeRouterError(w, http.StatusBadGateway, routerError{
			Error: fmt.Sprintf("shard %s: reading response: %v", s.Name, err),
			Shard: s.Name, RetriedShard: retriedFrom,
		})
		return false
	}
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("X-Shard", s.Name)
	if retriedFrom != "" {
		w.Header().Set("X-Retried-Shard", retriedFrom)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(b)
	return true
}

// maxStreamLine caps one NDJSON line accepted from a worker (a change
// record is tens of bytes; control records small multiples of that).
// A line past the cap means a hostile or corrupted worker — the
// stream is aborted with an in-band error record rather than buffered
// unboundedly.
const maxStreamLine = 1 << 20

// streamThrough forwards a 200 streaming response incrementally.
// NDJSON bodies are copied line by line: only COMPLETE lines are
// forwarded (a worker dying mid-record can never tear a record on the
// client's wire), and a mid-stream failure appends a typed in-band
// error record — the status line is long gone, so the error travels
// in the stream like the workers' own late errors do. VCD bodies are
// copied raw with a trailing $comment on failure, mirroring the
// worker's own abort convention.
func (rt *Router) streamThrough(w http.ResponseWriter, r *http.Request, resp *http.Response, s *shard, retriedFrom string) {
	ndjson := strings.Contains(resp.Header.Get("Content-Type"), "ndjson")
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("X-Shard", s.Name)
	if retriedFrom != "" {
		w.Header().Set("X-Retried-Shard", retriedFrom)
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if !ndjson {
		// VCD (or any other non-NDJSON stream): raw incremental copy.
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
				flush()
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				s.markFailureFor(time.Now(), rt.opts.cooldown())
				rt.stats.observeStreamAbort()
				fmt.Fprintf(w, "$comment router: shard %s failed mid-stream: %s $end\n", s.Name, err)
				flush()
				return
			}
		}
	}

	br := bufio.NewReaderSize(resp.Body, maxStreamLine)
	abort := func(cause error) {
		s.markFailureFor(time.Now(), rt.opts.cooldown())
		rt.stats.observeStreamAbort()
		rec := map[string]string{
			"type":  "error",
			"error": fmt.Sprintf("router: shard %s failed mid-stream: %v", s.Name, cause),
			"shard": s.Name,
		}
		if b, err := json.Marshal(rec); err == nil {
			w.Write(append(b, '\n'))
		}
		flush()
	}
	for {
		line, err := br.ReadSlice('\n')
		switch err {
		case nil:
			w.Write(line)
			flush()
		case io.EOF:
			if len(line) > 0 {
				// A final partial line is a torn record: the worker
				// died (or lied about being done) mid-write. Drop the
				// fragment and surface a typed error instead.
				abort(fmt.Errorf("stream truncated mid-record (%d stray bytes)", len(line)))
			}
			return
		case bufio.ErrBufferFull:
			abort(fmt.Errorf("stream record exceeds %d bytes", maxStreamLine))
			return
		default:
			if r.Context().Err() != nil {
				return // the client went away; nothing to report to it
			}
			abort(err)
			return
		}
	}
}

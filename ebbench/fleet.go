package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/store"
)

// server is one in-process HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// tracerRef lets long-lived seams (transports, store backends) record
// into whichever tracer the current phase uses; nil records nothing.
type tracerRef struct{ p atomic.Pointer[tracer] }

func (r *tracerRef) get() *tracer  { return r.p.Load() }
func (r *tracerRef) set(t *tracer) { r.p.Store(t) }

// Headers that carry the driver's span identity through the router to
// its worker transport.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// timedTransport wraps the router's worker transport: each worker round
// trip (until its body is closed) becomes a span under the driver's
// HTTP span.
type timedTransport struct {
	base http.RoundTripper
	ref  *tracerRef
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.ref.get()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	parent, _ := strconv.Atoi(req.Header.Get(hdrSpan))
	op, err := strconv.Atoi(req.Header.Get(hdrOp))
	if err != nil {
		op = -1
	}
	id := tr.begin("router.worker_rt", parent, op)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.end(id) }}
	return resp, nil
}

// spanBody ends a span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// timedBackend wraps a store's remote tier: each origin Get and Put is
// a span. The store calls it without request identity, so its spans
// are roots with op -1.
type timedBackend struct {
	*store.Remote
	ref *tracerRef
}

func (b *timedBackend) Get(k store.Key) ([]byte, bool) {
	tr := b.ref.get()
	id := tr.begin("store.remote.get", 0, -1)
	defer tr.end(id)
	return b.Remote.Get(k)
}

func (b *timedBackend) Put(k store.Key, data []byte) error {
	tr := b.ref.get()
	id := tr.begin("store.remote.put", 0, -1)
	defer tr.end(id)
	return b.Remote.Put(k, data)
}

// PutRaw keeps the store's pre-framed write-through path.
func (b *timedBackend) PutRaw(id string, raw []byte) error {
	tr := b.ref.get()
	sid := tr.begin("store.remote.put", 0, -1)
	defer tr.end(sid)
	return b.Remote.PutRaw(id, raw)
}

// newClient builds the driver's HTTP client: at most `clients`
// connections.
func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients
	tr.MaxIdleConnsPerHost = clients
	tr.MaxConnsPerHost = clients
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	tier   string // X-Cache, "" when the route has none
	body   []byte
	// first is the time from send to the first body line (streams).
	first time.Duration
}

// post sends one request and reads the whole body. A traced call is
// one span named http.<route> whose ID travels in hdrSpan.
func post(ctx context.Context, c *http.Client, url string, body []byte, tr *tracer, route string, parent, op int) (reply, error) {
	id := tr.begin("http."+route, parent, op)
	defer tr.end(id)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrSpan, strconv.Itoa(id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, tier: resp.Header.Get("X-Cache")}
	var buf bytes.Buffer
	first := true
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 && first {
			r.first, first = time.Since(start), false
		}
		buf.Write(chunk[:n])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return r, fmt.Errorf("reading %s: %w", route, err)
		}
	}
	r.body = buf.Bytes()
	if tr != nil && r.tier != "" {
		tr.rename(id, "http."+route+"."+r.tier)
	}
	return r, nil
}

// fleet is the production shape on loopback: an origin store served
// by its RemoteHandler, workers (service.New(...).Handler()) each with
// its own disk store whose remote tier is the origin, and the router
// in front of them.
type fleet struct {
	rt      *router.Router
	stores  []*store.Store
	dirs    []string
	srvs    []*server
	remotes []*timedBackend
}

// startFleet starts the origin, n workers and the router, and points
// the bench's target at the router.
func (b *serveBench) startFleet(n int) error {
	base, err := os.MkdirTemp(b.cfg.dir, "fleet-")
	if err != nil {
		return err
	}
	origin, err := store.Open(filepath.Join(base, "origin"), store.Options{})
	if err != nil {
		return err
	}
	b.closers = append(b.closers, func() { origin.Close() })
	osrv, err := serve(origin.RemoteHandler())
	if err != nil {
		return err
	}
	b.closers = append(b.closers, osrv.close)
	var urls []string
	for i := 0; i < n; i++ {
		rb := &timedBackend{Remote: store.NewRemote(osrv.url, store.RemoteOptions{}), ref: &b.ref}
		dir := filepath.Join(base, fmt.Sprintf("worker%d", i))
		st, err := store.Open(dir, store.Options{Remote: rb})
		if err != nil {
			return err
		}
		b.closers = append(b.closers, func() { st.Close() })
		srv, err := serve(service.New(service.Config{Store: st}).Handler())
		if err != nil {
			return err
		}
		b.closers = append(b.closers, srv.close)
		b.stores, b.dirs, b.srvs, b.remotes = append(b.stores, st), append(b.dirs, dir), append(b.srvs, srv), append(b.remotes, rb)
		urls = append(urls, srv.url)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	b.rt, err = router.New(router.Options{Workers: urls, Client: &http.Client{Transport: &timedTransport{base: tr, ref: &b.ref}}})
	if err != nil {
		return err
	}
	b.closers = append(b.closers, b.rt.Close)
	rsrv, err := serve(b.rt.Handler())
	if err != nil {
		return err
	}
	b.closers = append(b.closers, rsrv.close)
	b.target = rsrv.url
	return nil
}

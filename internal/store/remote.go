package store

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// DefaultRemoteTimeout bounds one remote-store HTTP round trip when
// RemoteOptions.Timeout is zero.
const DefaultRemoteTimeout = 5 * time.Second

// DefaultRemoteCooldown is how long a Remote stays in local-only
// degradation after a transport failure when RemoteOptions.Cooldown is
// zero: during the cooldown every operation is skipped as a miss (or a
// dropped write) instead of hammering a down origin with doomed
// round trips.
const DefaultRemoteCooldown = time.Second

// RemoteOptions tune a Remote backend.
type RemoteOptions struct {
	// Timeout bounds each HTTP round trip. Zero means
	// DefaultRemoteTimeout; it is ignored when Client is set.
	Timeout time.Duration
	// Cooldown is how long the backend skips the origin after a
	// transport failure. Zero means DefaultRemoteCooldown; negative
	// disables the cooldown (every operation retries the origin).
	Cooldown time.Duration
	// AuthToken, when non-empty, is sent as "Authorization: Bearer
	// <token>" on every request — the shared secret a fleet uses when
	// its origins require one (see AuthMiddleware). Empty sends no
	// credentials (trusted-network deployments).
	AuthToken string
	// Client overrides the HTTP client (tests inject
	// httptest-friendly transports; production callers normally leave
	// it nil).
	Client *http.Client
}

// Remote is the client side of the shared-origin protocol: a Backend
// that fetches and stores framed entries over another instance's
// GET/PUT /v1/store/{id} routes. Every fetched entry is verified
// (framing, payload checksum, and that the embedded key matches the
// requested one) before it is returned, so a corrupt or hostile origin
// degrades to misses, never to bad payloads. Transport failures put
// the backend into a cooldown during which operations are skipped
// locally. Safe for concurrent use.
type Remote struct {
	base  string
	c     *http.Client
	token string

	cooldown time.Duration

	mu        sync.Mutex
	downUntil time.Time
	stats     BackendStats
}

// NewRemote builds a Remote over base, the URL prefix of an origin's
// store routes (e.g. "http://cache.internal:8080/v1/store"). A
// trailing slash is tolerated.
func NewRemote(base string, opts RemoteOptions) *Remote {
	c := opts.Client
	if c == nil {
		timeout := opts.Timeout
		if timeout == 0 {
			timeout = DefaultRemoteTimeout
		}
		c = &http.Client{Timeout: timeout}
	}
	cooldown := opts.Cooldown
	if cooldown == 0 {
		cooldown = DefaultRemoteCooldown
	}
	return &Remote{
		base:     strings.TrimRight(base, "/"),
		c:        c,
		token:    opts.AuthToken,
		cooldown: cooldown,
	}
}

// authorize attaches the fleet's shared secret, when one is
// configured.
func (r *Remote) authorize(req *http.Request) {
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
}

// entryURL is the origin URL of one entry.
func (r *Remote) entryURL(id string) string { return r.base + "/" + id }

// down reports whether the backend is inside a failure cooldown.
func (r *Remote) down() bool {
	if r.cooldown < 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Now().Before(r.downUntil)
}

// fail records a transport failure: counts it and starts the cooldown.
func (r *Remote) fail() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Errors++
	if r.cooldown > 0 {
		r.downUntil = time.Now().Add(r.cooldown)
	}
}

// Get implements Backend: GET {base}/{id}, verifying the returned
// entry end to end. Any failure — cooldown, transport error, non-200
// status, oversized body, bad framing, checksum or key mismatch — is a
// miss, never an error. Only lookups actually sent to the origin are
// counted in BackendStats.Gets; cooldown-skipped ones are not.
func (r *Remote) Get(k Key) ([]byte, bool) {
	if r.down() {
		return nil, false
	}
	r.mu.Lock()
	r.stats.Gets++
	r.mu.Unlock()

	req, err := http.NewRequest(http.MethodGet, r.entryURL(k.id()), nil)
	if err != nil {
		r.countError()
		return nil, false
	}
	r.authorize(req)
	resp, err := r.c.Do(req)
	if err != nil {
		r.fail()
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false
	case resp.StatusCode >= http.StatusInternalServerError:
		// The origin itself is unhealthy: cool down like a transport
		// failure.
		r.fail()
		return nil, false
	case resp.StatusCode != http.StatusOK:
		// The origin answered deliberately (4xx): an entry- or
		// request-specific rejection, not a reason to stop talking to
		// it.
		r.countError()
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxEntryBytes+1))
	if err != nil {
		r.fail()
		return nil, false
	}
	if len(raw) > MaxEntryBytes {
		r.countError()
		return nil, false
	}
	payload, err := decodeEntry(raw, k)
	if err != nil {
		// The origin answered but with bytes that fail verification:
		// an origin-side problem, not a transport one — count it
		// without tripping the cooldown (other entries may be fine).
		r.countError()
		return nil, false
	}
	r.mu.Lock()
	r.stats.Hits++
	r.mu.Unlock()
	return payload, true
}

// countError counts a non-transport failure without starting the
// cooldown.
func (r *Remote) countError() {
	r.mu.Lock()
	r.stats.Errors++
	r.mu.Unlock()
}

// Put frames the payload and ships it with PutRaw.
func (r *Remote) Put(k Key, data []byte) error {
	return r.PutRaw(k.id(), encodeEntry(k, data))
}

// PutRaw implements Backend by uploading a pre-framed entry: PUT
// {base}/{id} with the entry as the body and "If-None-Match: *", so an
// origin that already holds the entry answers 412 without rewriting it
// (content-addressed entries for one id are interchangeable). During a
// cooldown the write is dropped silently — callers treat remote
// persistence as an optimization.
func (r *Remote) PutRaw(id string, raw []byte) error {
	if r.down() {
		return nil
	}
	req, err := http.NewRequest(http.MethodPut, r.entryURL(id), bytes.NewReader(raw))
	if err != nil {
		r.countError()
		return fmt.Errorf("store: remote put: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("If-None-Match", "*")
	r.authorize(req)
	resp, err := r.c.Do(req)
	if err != nil {
		r.fail()
		return fmt.Errorf("store: remote put: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK:
		r.mu.Lock()
		r.stats.Puts++
		r.mu.Unlock()
		return nil
	case resp.StatusCode == http.StatusPreconditionFailed:
		// The origin already holds this entry: the write-through's
		// goal is met.
		return nil
	case resp.StatusCode >= http.StatusInternalServerError:
		r.fail()
		return fmt.Errorf("store: remote put: origin answered %s", resp.Status)
	default:
		// An entry-specific rejection (413, 422, ...): count it, but
		// do not cool down — other entries (and all Gets) are fine.
		r.countError()
		return fmt.Errorf("store: remote put: origin answered %s", resp.Status)
	}
}

// Stats implements Backend.
func (r *Remote) Stats() BackendStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close implements Backend.
func (r *Remote) Close() error {
	r.c.CloseIdleConnections()
	return nil
}

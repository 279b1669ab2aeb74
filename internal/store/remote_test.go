package store

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newOrigin opens an origin store and serves its remote protocol over
// httptest.
func newOrigin(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	origin, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.RemoteHandler())
	t.Cleanup(ts.Close)
	return origin, ts
}

// newTieredClient opens a store whose remote tier points at base.
func newTieredClient(t *testing.T, base string, opts RemoteOptions) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Remote: NewRemote(base, opts)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRemoteReadThrough(t *testing.T) {
	origin, ts := newOrigin(t)
	k := testKey(1)
	payload := []byte("shared across the fleet")
	mustPut(t, origin, k, payload)

	client := newTieredClient(t, ts.URL, RemoteOptions{})
	got, tier, ok := client.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v, %v", got, tier, ok)
	}
	if tier != TierRemote {
		t.Errorf("first Get served from %v, want remote", tier)
	}
	// The fetched entry was written through: the next Get is local.
	if _, tier, ok := client.Get(k); !ok || tier != TierMemory {
		t.Errorf("second Get served from %v (ok %v), want memory", tier, ok)
	}
	st := client.Stats()
	if st.RemoteHits != 1 || st.MemoryHits != 1 {
		t.Errorf("client stats = %+v, want 1 remote hit + 1 memory hit", st)
	}
	if os := origin.Stats(); os.OriginGets != 1 {
		t.Errorf("origin served %d gets, want 1", os.OriginGets)
	}
	// An absent key misses everywhere without error.
	if _, _, ok := client.Get(testKey(99)); ok {
		t.Error("absent key reported a hit")
	}
}

// TestHoldsIsLocalAndUncounted: Holds answers from the local index
// alone. An entry only the origin has is not held, and asking counts
// no lookup and sends nothing to the origin.
func TestHoldsIsLocalAndUncounted(t *testing.T) {
	origin, ts := newOrigin(t)
	mustPut(t, origin, testKey(1), []byte("at the origin only"))
	client := newTieredClient(t, ts.URL, RemoteOptions{})
	defer client.Close()
	mustPut(t, client, testKey(2), []byte("local"))

	if client.Holds(testKey(1)) {
		t.Error("Holds reported an entry only the origin has")
	}
	if !client.Holds(testKey(2)) {
		t.Error("Holds missed a local entry")
	}
	st := client.Stats()
	if n := st.MemoryHits + st.DiskHits + st.RemoteHits + st.Misses; n != 0 {
		t.Errorf("Holds counted %d lookups", n)
	}
	if os := origin.Stats(); os.OriginGets != 0 {
		t.Errorf("Holds sent %d gets to the origin", os.OriginGets)
	}
}

func TestRemoteWriteThrough(t *testing.T) {
	origin, ts := newOrigin(t)
	client := newTieredClient(t, ts.URL, RemoteOptions{})

	k := testKey(2)
	payload := []byte("pushed to the origin")
	mustPut(t, client, k, payload)
	client.Flush() // write-through runs asynchronously

	// The origin now serves the entry locally — no remote tier of its
	// own involved.
	got, tier, ok := origin.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("origin Get = %q, %v, %v", got, tier, ok)
	}
	if os := origin.Stats(); os.OriginPuts != 1 {
		t.Errorf("origin accepted %d puts, want 1", os.OriginPuts)
	}
	// A second identical write-through short-circuits with 412 (the
	// If-None-Match precondition): still no error, still one entry.
	mustPut(t, client, k, payload)
	client.Flush()
	if n := origin.Len(); n != 1 {
		t.Errorf("origin has %d entries after duplicate write-through, want 1", n)
	}
	if rs := client.Stats().Remote; rs == nil || rs.Errors != 0 {
		t.Errorf("duplicate write-through counted as error: %+v", rs)
	}
}

func TestRemoteHandlerProtocol(t *testing.T) {
	origin, ts := newOrigin(t)
	k := testKey(3)
	payload := []byte("protocol under test")
	mustPut(t, origin, k, payload)
	id := k.id()
	url := ts.URL + "/" + id

	// GET returns the framed entry with a strong ETag.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0)
	{
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		raw = buf.Bytes()
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("GET response has no ETag")
	}
	if got, err := decodeEntry(raw, k); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GET body does not verify: %q, %v", got, err)
	}

	// If-None-Match on the sha256 revalidates without a body.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET status = %d, want 304", resp.StatusCode)
	}

	// Conditional PUT of an existing entry answers 412.
	req, _ = http.NewRequest(http.MethodPut, url, bytes.NewReader(raw))
	req.Header.Set("If-None-Match", "*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("conditional PUT of existing entry = %d, want 412", resp.StatusCode)
	}

	// Error table: malformed ids, absent entries, corrupt bodies,
	// bodies whose key does not hash to the id, bad methods.
	otherRaw := encodeEntry(testKey(4), []byte("other"))
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"malformed id", http.MethodGet, "/not-an-id", nil, http.StatusBadRequest},
		{"absent entry", http.MethodGet, "/" + testKey(8).id(), nil, http.StatusNotFound},
		{"corrupt body", http.MethodPut, "/" + id, []byte("garbage"), http.StatusUnprocessableEntity},
		{"key/id mismatch", http.MethodPut, "/" + id, otherRaw, http.StatusUnprocessableEntity},
		{"bit-flipped payload", http.MethodPut, "/" + testKey(5).id(), flipLastBit(encodeEntry(testKey(5), []byte("x"))), http.StatusUnprocessableEntity},
		{"bad method", http.MethodDelete, "/" + id, nil, http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// An accepted unconditional PUT installs a servable entry.
	fresh := testKey(6)
	freshRaw := encodeEntry(fresh, []byte("uploaded"))
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/"+fresh.id(), bytes.NewReader(freshRaw))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d, want 204", resp.StatusCode)
	}
	if got, _, ok := origin.Get(fresh); !ok || string(got) != "uploaded" {
		t.Errorf("uploaded entry not served: %q, %v", got, ok)
	}
}

func flipLastBit(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	out[len(out)-1] ^= 1
	return out
}

func TestRemoteDownDegradesToLocal(t *testing.T) {
	// An origin that is already gone: every remote op fails fast and
	// the store keeps working locally.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	client := newTieredClient(t, dead.URL, RemoteOptions{Cooldown: time.Hour})

	k := testKey(1)
	if err := client.Put(k, []byte("local life goes on")); err != nil {
		t.Fatalf("Put with a down origin failed: %v", err)
	}
	client.Flush() // let the failing write-through trip the cooldown
	if got, tier, ok := client.Get(k); !ok || tier != TierMemory || string(got) != "local life goes on" {
		t.Errorf("local Get after down-origin Put = %q, %v, %v", got, tier, ok)
	}
	if _, _, ok := client.Get(testKey(2)); ok {
		t.Error("down origin produced a hit")
	}

	// The cooldown takes effect: the first failing op trips it, later
	// ops inside the window are skipped without new transport errors.
	errsAfterTrip := client.Stats().Remote.Errors
	client.Get(testKey(3))
	client.Get(testKey(4))
	if got := client.Stats().Remote.Errors; got != errsAfterTrip {
		t.Errorf("ops during cooldown recorded %d new errors, want 0", got-errsAfterTrip)
	}
}

func TestRemoteCorruptOriginIsMiss(t *testing.T) {
	// An origin that answers 200 with bytes that fail verification
	// must degrade to a miss, not a bad payload.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "not a framed entry at all")
	}))
	t.Cleanup(evil.Close)
	client := newTieredClient(t, evil.URL, RemoteOptions{})
	if _, _, ok := client.Get(testKey(1)); ok {
		t.Fatal("corrupt origin bytes served as a hit")
	}
	rs := client.Stats().Remote
	if rs.Errors != 1 || rs.Hits != 0 {
		t.Errorf("remote stats = %+v, want 1 error, 0 hits", rs)
	}

	// Wrong-key entries (valid framing, different key) are rejected
	// the same way.
	swapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(encodeEntry(testKey(7), []byte("payload for another key")))
	}))
	t.Cleanup(swapped.Close)
	client2 := newTieredClient(t, swapped.URL, RemoteOptions{})
	if _, _, ok := client2.Get(testKey(1)); ok {
		t.Fatal("wrong-key entry served as a hit")
	}
}

func TestRemoteFetchSingleFlight(t *testing.T) {
	origin, _ := newOrigin(t)
	k := testKey(1)
	mustPut(t, origin, k, []byte("fetched once"))

	// Gate the origin so all concurrent Gets pile onto one in-flight
	// fetch before any can complete.
	var requests atomic.Int64
	gate := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		<-gate
		origin.RemoteHandler().ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	client := newTieredClient(t, slow.URL, RemoteOptions{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	oks := make([]bool, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], _, oks[w] = client.Get(k)
		}(w)
	}
	// Let the goroutines join the flight, then release the origin.
	for requests.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	for w := 0; w < waiters; w++ {
		if !oks[w] || string(results[w]) != "fetched once" {
			t.Fatalf("waiter %d: %q, %v", w, results[w], oks[w])
		}
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("origin saw %d requests for one entry, want 1 (single flight)", n)
	}
}

// TestAuthMiddleware: with a shared secret configured, the origin
// rejects unauthenticated and wrong-token callers and admits fleet
// members carrying the token; without one, it is a no-op.
func TestAuthMiddleware(t *testing.T) {
	origin, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	mustPut(t, origin, k, []byte("guarded"))
	ts := httptest.NewServer(AuthMiddleware("hunter2", origin.RemoteHandler()))
	t.Cleanup(ts.Close)

	// Bare and wrong-token requests are 401.
	for _, header := range []string{"", "Bearer wrong", "Basic hunter2"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/"+k.id(), nil)
		if header != "" {
			req.Header.Set("Authorization", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("Authorization %q: status = %d, want 401", header, resp.StatusCode)
		}
	}

	// A fleet member configured with the token reads and writes.
	client := newTieredClient(t, ts.URL, RemoteOptions{AuthToken: "hunter2"})
	if got, tier, ok := client.Get(k); !ok || tier != TierRemote || string(got) != "guarded" {
		t.Errorf("authed Get = %q, %v, %v", got, tier, ok)
	}
	mustPut(t, client, testKey(2), []byte("authed write"))
	client.Flush()
	if _, _, ok := origin.Get(testKey(2)); !ok {
		t.Error("authed write-through did not land on the origin")
	}
	if rs := client.Stats().Remote; rs.Errors != 0 {
		t.Errorf("authed fleet member recorded %d remote errors", rs.Errors)
	}

	// An unauthenticated fleet member degrades to misses, not errors
	// surfacing to callers.
	stranger := newTieredClient(t, ts.URL, RemoteOptions{})
	if _, _, ok := stranger.Get(k); ok {
		t.Error("unauthenticated member read a guarded entry")
	}

	// Empty token = no gate.
	open := httptest.NewServer(AuthMiddleware("", origin.RemoteHandler()))
	t.Cleanup(open.Close)
	resp, err := http.Get(open.URL + "/" + k.id())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ungated GET = %d, want 200", resp.StatusCode)
	}
}

// blockingBackend is a Backend whose PutRaw parks until released, for
// saturating the bounded write-through pool.
type blockingBackend struct {
	release chan struct{}
	puts    atomic.Int64
}

func (b *blockingBackend) Get(Key) ([]byte, bool) { return nil, false }
func (b *blockingBackend) PutRaw(string, []byte) error {
	b.puts.Add(1)
	<-b.release
	return nil
}
func (b *blockingBackend) Stats() BackendStats { return BackendStats{} }
func (b *blockingBackend) Close() error        { return nil }

// TestRemoteWriteThroughBounded: a slow origin saturates the async
// pool; further Puts shed their remote leg (counted, local write
// intact) instead of accumulating goroutines without limit.
func TestRemoteWriteThroughBounded(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{})}
	s, err := Open(t.TempDir(), Options{Remote: bb})
	if err != nil {
		t.Fatal(err)
	}
	const puts = 64 // two pool's worth
	for i := 0; i < puts; i++ {
		mustPut(t, s, testKey(i), []byte("x"))
	}
	st := s.Stats()
	if st.RemoteDroppedWrites == 0 {
		t.Error("saturated pool shed no write-throughs")
	}
	if st.Puts != puts {
		t.Errorf("local puts = %d, want %d (shedding must not affect local durability)", st.Puts, puts)
	}
	if inFlight := bb.puts.Load(); inFlight > 32 {
		t.Errorf("%d write-throughs in flight, want <= 32", inFlight)
	}
	// Every local entry is readable regardless of shedding.
	for i := 0; i < puts; i++ {
		if _, _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("entry %d lost", i)
		}
	}
	close(bb.release)
	s.Close()
}

func TestRemoteBaseURLNormalization(t *testing.T) {
	r := NewRemote("http://origin:8080/v1/store/", RemoteOptions{})
	if got := r.entryURL(strings.Repeat("ab", 32)); got != "http://origin:8080/v1/store/"+strings.Repeat("ab", 32) {
		t.Errorf("entryURL = %q", got)
	}
}

package store

import (
	"crypto/subtle"
	"io"
	"net/http"
	"os"
	"strings"
)

// RemoteHandler returns the origin side of the shared-store protocol:
// an http.Handler expecting "/{id}" paths (mount it under a prefix
// with http.StripPrefix) where {id} is an entry's content address (the
// 64-hex-digit SHA-256 of its canonical key text).
//
//	GET /{id}
//	    200 with the framed entry bytes (application/octet-stream) and
//	    a strong ETag (the SHA-256 of those bytes); 304 when
//	    If-None-Match matches; 404 when absent or corrupt. Entries are
//	    self-describing — key text, payload length and payload
//	    checksum travel in the frame — so clients verify end to end.
//
//	PUT /{id}
//	    Body is a framed entry; the origin verifies the framing, the
//	    payload checksum, and that the embedded key hashes to {id}
//	    before installing it (422 otherwise). "If-None-Match: *"
//	    answers 412 without rewriting when the entry already exists.
//	    204 on success; 413 when the body exceeds MaxEntryBytes.
//
// Serving a GET promotes the entry in the origin's disk LRU; an
// accepted PUT installs into both local tiers, exactly like a local
// Put. A memory-only store has no framed entries to serve and answers
// 404 to everything.
//
// Trust model: the checksums bind each entry's payload to the header
// of its own frame and the key text to the id — they defend against
// corruption (bitrot, truncation, crossed wires), not against a peer
// that deliberately writes a wrong payload under a real key. Like any
// compute-keyed (rather than payload-addressed) cache, the artifact
// namespace is only as trustworthy as its writers: deploy the store
// routes on a trusted network, and/or require the fleet's shared
// secret with AuthMiddleware + RemoteOptions.AuthToken.
func (s *Store) RemoteHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.dir == "" {
			http.Error(w, "store: memory-only store serves no entries", http.StatusNotFound)
			return
		}
		id := strings.Trim(r.URL.Path, "/")
		if !validEntryID(id) {
			http.Error(w, "store: malformed entry id", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			s.serveEntry(w, r, id)
		case http.MethodPut:
			s.acceptEntry(w, r, id)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			http.Error(w, "store: use GET or PUT", http.StatusMethodNotAllowed)
		}
	})
}

// AuthMiddleware wraps a handler (normally RemoteHandler) so every
// request must carry "Authorization: Bearer <token>"; anything else is
// 401. The comparison is constant-time. An empty token returns next
// unwrapped — auth is opt-in, for fleets that cannot rely on network
// isolation alone.
func AuthMiddleware(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if len(got) != len(want) || subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="eblocks-store"`)
			http.Error(w, "store: missing or invalid shared secret", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// serveEntry answers GET/HEAD /{id} from the disk tier. Serving
// promotes the file in the disk LRU; a corrupt file is evicted exactly
// like a failed Get.
func (s *Store) serveEntry(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	s.originGets++
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "store: closed", http.StatusServiceUnavailable)
		return
	}
	e := s.index[id]
	if e == nil || e.diskEl == nil {
		s.mu.Unlock()
		http.Error(w, "store: no such entry", http.StatusNotFound)
		return
	}
	s.diskOrder.MoveToFront(e.diskEl)
	gen := e.gen
	s.mu.Unlock()

	raw, err := os.ReadFile(s.entryPath(id))
	if err == nil {
		_, err = decodeEntryByID(raw, id)
	}
	if err != nil {
		s.evictFailedRead(id, gen, err)
		http.Error(w, "store: no such entry", http.StatusNotFound)
		return
	}
	etag := `"` + rawDigest(raw) + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/octet-stream")
	if match := r.Header.Get("If-None-Match"); match != "" && ifNoneMatchHits(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(raw)
}

// acceptEntry answers PUT /{id}: verify, then install through both
// local tiers.
func (s *Store) acceptEntry(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	s.originPuts++
	closed := s.closed
	e := s.index[id]
	exists := e != nil && e.diskEl != nil
	s.mu.Unlock()
	if closed {
		http.Error(w, "store: closed", http.StatusServiceUnavailable)
		return
	}
	if r.Header.Get("If-None-Match") == "*" && exists {
		http.Error(w, "store: entry already exists", http.StatusPreconditionFailed)
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, MaxEntryBytes+1))
	if err != nil {
		http.Error(w, "store: reading entry body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(raw) > MaxEntryBytes {
		http.Error(w, "store: entry exceeds the size limit", http.StatusRequestEntityTooLarge)
		return
	}
	payload, err := decodeEntryByID(raw, id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if _, err := s.install(id, raw, payload, false); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ifNoneMatchHits reports whether an If-None-Match header value
// matches etag: "*" or any listed validator (weak prefixes tolerated).
func ifNoneMatchHits(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

package store

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func testKey(i int) Key {
	return Key{
		Fingerprint: fmt.Sprintf("fp-%04d", i),
		Constraints: "2x2|convex=true",
		Algorithm:   "paredown",
		Stage:       "response",
	}
}

func mustPut(t *testing.T, s *Store, k Key, data []byte) {
	t.Helper()
	if err := s.Put(k, data); err != nil {
		t.Fatalf("Put(%v): %v", k, err)
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	payload := []byte("hello artifact")
	mustPut(t, s, k, payload)

	got, tier, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v, %v", got, tier, ok)
	}
	if tier != TierMemory {
		t.Errorf("warm-process Get served from %v, want memory", tier)
	}
	if _, _, ok := s.Get(testKey(2)); ok {
		t.Error("Get of an absent key reported a hit")
	}
	st := s.Stats()
	if st.MemoryHits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	payload := []byte("survives restarts")
	mustPut(t, s, k, payload)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened store serves from disk first, then memory.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, tier, ok := s2.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Get = %q, %v, %v", got, tier, ok)
	}
	if tier != TierDisk {
		t.Errorf("first hit after reopen served from %v, want disk", tier)
	}
	if _, tier, _ := s2.Get(k); tier != TierMemory {
		t.Errorf("second hit after reopen served from %v, want memory", tier)
	}
}

func TestDistinctKeysDistinctEntries(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := testKey(1)
	variants := []Key{
		base,
		{Fingerprint: base.Fingerprint, Constraints: "3x3|convex=true", Algorithm: base.Algorithm, Stage: base.Stage},
		{Fingerprint: base.Fingerprint, Constraints: base.Constraints, Algorithm: "exhaustive", Stage: base.Stage},
		{Fingerprint: base.Fingerprint, Constraints: base.Constraints, Algorithm: base.Algorithm, Stage: "partitioned"},
	}
	for i, k := range variants {
		mustPut(t, s, k, []byte(fmt.Sprintf("payload-%d", i)))
	}
	for i, k := range variants {
		got, _, ok := s.Get(k)
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Errorf("variant %d: got %q, %v", i, got, ok)
		}
	}
	if n := s.Len(); n != len(variants) {
		t.Errorf("entries = %d, want %d", n, len(variants))
	}
}

func TestSizeBoundEvictsLRU(t *testing.T) {
	// Each entry's file is payload + ~150 byte header; a tight budget
	// forces eviction. Memory tier off so hits prove disk state.
	s, err := Open(t.TempDir(), Options{MaxBytes: 2048, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 400)
	for i := 0; i < 8; i++ {
		mustPut(t, s, testKey(i), payload)
	}
	st := s.Stats()
	if st.BytesUsed > 2048 {
		t.Errorf("disk usage %d exceeds the 2048-byte bound", st.BytesUsed)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite exceeding the bound")
	}
	// The most recent entry survived; the oldest did not.
	if _, _, ok := s.Get(testKey(7)); !ok {
		t.Error("most recent entry was evicted")
	}
	if _, _, ok := s.Get(testKey(0)); ok {
		t.Error("least recent entry survived the bound")
	}
}

func TestGetPromotesAgainstEviction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 2048, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 400)
	mustPut(t, s, testKey(0), payload)
	mustPut(t, s, testKey(1), payload)
	mustPut(t, s, testKey(2), payload)
	s.Get(testKey(0)) // promote 0; 1 is now the eviction candidate
	mustPut(t, s, testKey(3), payload)
	if _, _, ok := s.Get(testKey(0)); !ok {
		t.Error("recently read entry was evicted")
	}
	if _, _, ok := s.Get(testKey(1)); ok {
		t.Error("least recently used entry survived")
	}
}

// corruptOneEntry rewrites the single entry file under dir using
// mutate. It fails the test unless exactly one entry exists.
func corruptOneEntry(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	var files []string
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	if len(files) != 1 {
		t.Fatalf("expected exactly 1 entry file, found %d", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntryIsEvictedNotFatal(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-5] }},
		{"bit flip in payload", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x01
			return out
		}},
		{"bad magic", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[0] = 'X'
			return out
		}},
		{"emptied", func([]byte) []byte { return nil }},
		{"header only", func(raw []byte) []byte { return raw[:20] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(1)
			mustPut(t, s, k, []byte("soon to be corrupted"))
			s.Close()
			corruptOneEntry(t, dir, tc.mutate)

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s2.Get(k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := s2.Stats()
			if st.CorruptEvicted != 1 {
				t.Errorf("corruptEvicted = %d, want 1", st.CorruptEvicted)
			}
			if st.Entries != 0 {
				t.Errorf("corrupt entry still indexed: %d entries", st.Entries)
			}
			// The store stays fully usable: the same key can be
			// rewritten and read back.
			mustPut(t, s2, k, []byte("recomputed"))
			if got, _, ok := s2.Get(k); !ok || string(got) != "recomputed" {
				t.Errorf("rewrite after corruption failed: %q, %v", got, ok)
			}
		})
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	committed := testKey(1)
	mustPut(t, s, committed, []byte("committed before the crash"))
	s.Close()

	// Simulate a process killed mid-write: a partial temp file that
	// never reached its rename, plus a torn final entry (power loss
	// after rename but before the payload's sectors landed).
	if err := os.WriteFile(filepath.Join(dir, "tmp", "put-1234"), []byte("partial wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := Key{Fingerprint: "torn", Constraints: "c", Algorithm: "a", Stage: "s"}
	full := encodeEntry(torn, bytes.Repeat([]byte("y"), 1000))
	tornPath := filepath.Join(dir, "objects", torn.id()[:2], torn.id())
	if err := os.MkdirAll(filepath.Dir(tornPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The store reopens clean: temp swept, committed entry intact,
	// torn entry degrades to a miss on first read.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("store did not reopen after simulated crash: %v", err)
	}
	if got, tier, ok := s2.Get(committed); !ok || tier != TierDisk || string(got) != "committed before the crash" {
		t.Errorf("committed entry lost: %q, %v, %v", got, tier, ok)
	}
	if _, _, ok := s2.Get(torn); ok {
		t.Error("torn entry served as a hit")
	}
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("%d temp files survived reopen", len(tmps))
	}
}

func TestUnreadableStoreDir(t *testing.T) {
	if runtime.GOOS == "windows" || os.Geteuid() == 0 {
		t.Skip("permission bits are not enforced for this user")
	}
	parent := t.TempDir()
	locked := filepath.Join(parent, "locked")
	if err := os.Mkdir(locked, 0o000); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(locked, 0o755) })
	if _, err := Open(filepath.Join(locked, "store"), Options{}); err == nil {
		t.Error("Open inside an unreadable directory succeeded")
	}
	if _, err := Open(locked, Options{}); err == nil {
		t.Error("Open of an unreadable directory succeeded")
	}
}

// TestConcurrentReadersDuringEviction hammers Get while writers churn
// the store far past its size bound, so readers constantly race entry
// deletion. Every Get must return either a correct payload or a clean
// miss (run with -race in CI).
func TestConcurrentReadersDuringEviction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 4096, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, 300)
	}
	for i := 0; i < keys; i++ {
		mustPut(t, s, testKey(i), payload(i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				i := (w + r) % keys
				if got, _, ok := s.Get(testKey(i)); ok && !bytes.Equal(got, payload(i)) {
					errs <- fmt.Errorf("key %d: wrong payload under concurrent eviction", i)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				i := (w*100 + r) % keys
				if err := s.Put(testKey(i), payload(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.CorruptEvicted != 0 {
		t.Errorf("concurrent eviction was miscounted as corruption: %+v", st)
	}
}

func TestMemoryTierBound(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MemBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("m"), 400)
	for i := 0; i < 5; i++ {
		mustPut(t, s, testKey(i), payload)
	}
	st := s.Stats()
	if st.MemBytesUsed > 1000 {
		t.Errorf("memory tier %d bytes exceeds its 1000-byte bound", st.MemBytesUsed)
	}
	// Old entries fell out of memory but remain on disk.
	if _, tier, ok := s.Get(testKey(0)); !ok || tier != TierDisk {
		t.Errorf("entry evicted from memory tier not served from disk (tier %v, ok %v)", tier, ok)
	}
	// Oversized payloads bypass the memory tier entirely.
	big := bytes.Repeat([]byte("B"), 2000)
	mustPut(t, s, testKey(9), big)
	if _, tier, ok := s.Get(testKey(9)); !ok || tier != TierDisk {
		t.Errorf("oversized payload cached in memory (tier %v, ok %v)", tier, ok)
	}
}

// TestMemoryOnlyStore: Open with no directory gives a store whose
// memory tier is its only tier — no disk, no remote, no origin routes.
func TestMemoryOnlyStore(t *testing.T) {
	if _, err := Open("", Options{Remote: NewRemote("http://127.0.0.1:1", RemoteOptions{})}); err == nil {
		t.Error("memory-only store accepted a remote tier")
	}
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	mustPut(t, s, k, []byte("hello"))
	if got, tier, ok := s.Get(k); !ok || tier != TierMemory || string(got) != "hello" {
		t.Errorf("Get = %q, %v, %v; want hello from memory", got, tier, ok)
	}
	if _, _, ok := s.Get(testKey(2)); ok {
		t.Error("Get of an absent key reported a hit")
	}
	st := s.Stats()
	if st.MemEntries != 1 || st.MemoryHits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 0 || st.Stages != nil {
		t.Errorf("stats = %+v", st)
	}
	if s.Dir() != "" || s.Len() != 0 {
		t.Errorf("Dir = %q, Len = %d; want no disk tier", s.Dir(), s.Len())
	}
	rec := httptest.NewRecorder()
	s.RemoteHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/"+k.id(), nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("origin GET on a memory-only store: status %d, want 404", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []byte("x")); err == nil {
		t.Error("Put on a closed memory-only store succeeded")
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, testKey(1), []byte("x"))
	s.Close()
	if _, _, ok := s.Get(testKey(1)); ok {
		t.Error("Get on a closed store hit")
	}
	if err := s.Put(testKey(2), []byte("y")); err == nil {
		t.Error("Put on a closed store succeeded")
	}
}

func TestEntryFraming(t *testing.T) {
	k := testKey(1)
	payload := []byte("framed payload\nwith newlines\n")
	raw := encodeEntry(k, payload)
	got, err := decodeEntry(raw, k)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode(encode) = %q, %v", got, err)
	}
	// A different key fails the embedded-key check even if the file
	// content is intact (collision defense).
	if _, err := decodeEntry(raw, testKey(2)); err == nil {
		t.Error("decode accepted an entry written under a different key")
	}
	// Empty payload round-trips.
	raw = encodeEntry(k, nil)
	if got, err := decodeEntry(raw, k); err != nil || len(got) != 0 {
		t.Errorf("empty payload: %q, %v", got, err)
	}
}

// TestOpenEnforcesBudgetOnDisk shrinks the budget between runs: Open
// must delete the evicted entries' files, not just forget them.
func TestOpenEnforcesBudgetOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 400)
	for i := 0; i < 8; i++ {
		mustPut(t, s, testKey(i), payload)
	}
	s.Close()

	s2, err := Open(dir, Options{MaxBytes: 2048, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.BytesUsed > 2048 || st.Evictions == 0 {
		t.Errorf("reopen did not enforce the budget: %+v", st)
	}
	var onDisk int64
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk > 2048 {
		t.Errorf("evicted entries' files survived reopen: %d bytes on disk", onDisk)
	}
}

// TestOpenIgnoresStrayFiles drops malformed file names into objects/;
// Open must skip them and eviction must never touch them.
func TestOpenIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, testKey(1), []byte("real"))
	s.Close()

	for _, stray := range []string{
		filepath.Join(dir, "objects", "ab", "x"),                // too short for entryPath
		filepath.Join(dir, "objects", "ab", "NOT-AN-ID-AT-ALL"), // malformed
		filepath.Join(dir, "objects", "zz", testKey(1).id()),    // wrong fan dir
		filepath.Join(dir, "objects", "stray-top-level"),        // not in a fan dir
	} {
		if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{MaxBytes: 1, MemBytes: -1}) // force eviction pressure
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n > 1 {
		t.Errorf("stray files were indexed: %d entries", n)
	}
	// Churn to trigger evictions; nothing may panic and the strays
	// must survive untouched.
	for i := 0; i < 4; i++ {
		mustPut(t, s2, testKey(10+i), bytes.Repeat([]byte("y"), 100))
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", "ab", "x")); err != nil {
		t.Errorf("stray file was deleted: %v", err)
	}
}

// TestReopenPreservesLRUOrder checks the rebuilt index evicts oldest-
// written first, not newest.
func TestReopenPreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 400)
	for i := 0; i < 4; i++ {
		mustPut(t, s, testKey(i), payload)
		// mtime granularity: ensure distinct timestamps.
		os.Chtimes(s.entryPath(testKey(i).id()), timeFor(i), timeFor(i))
	}
	s.Close()

	// Reopen with a budget that admits the existing entries plus a
	// sliver: one more Put over it evicts exactly the oldest.
	probe, err := Open(dir, Options{MaxBytes: -1, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.Stats().BytesUsed + 100
	probe.Close()
	s2, err := Open(dir, Options{MaxBytes: budget, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s2, testKey(9), payload)
	if _, _, ok := s2.Get(testKey(0)); ok {
		t.Error("oldest entry survived post-reopen eviction")
	}
	if _, _, ok := s2.Get(testKey(3)); !ok {
		t.Error("newest pre-reopen entry was evicted instead of the oldest")
	}
}

// timeFor builds strictly increasing mtimes for reopen-order tests.
func timeFor(i int) time.Time {
	return time.Date(2026, 1, 1, 0, 0, i, 0, time.UTC)
}

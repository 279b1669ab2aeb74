package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// checkMemInvariant asserts the memory-tier accounting invariant under
// the store lock: memBytes equals the sum of resident payload lengths,
// never exceeds the budget (when one is set), and the index and LRU
// list agree entry for entry.
func checkMemInvariant(t *testing.T, s *Store, budget int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	seen := map[string]bool{}
	for el := s.memOrder.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		sum += int64(len(e.payload))
		if seen[e.id] {
			t.Fatalf("memory tier holds id %s twice", e.id)
		}
		seen[e.id] = true
		if got, ok := s.index[e.id]; !ok || got != e || e.memEl != el {
			t.Fatalf("memory index disagrees with LRU list for id %s", e.id)
		}
	}
	resident := 0
	for _, e := range s.index {
		if e.memEl != nil {
			resident++
		}
	}
	if resident != s.memOrder.Len() {
		t.Fatalf("memory index has %d entries, LRU list %d", resident, s.memOrder.Len())
	}
	if s.memBytes != sum {
		t.Fatalf("memBytes = %d, resident payloads sum to %d", s.memBytes, sum)
	}
	if budget >= 0 && s.memBytes > budget {
		t.Fatalf("memBytes = %d exceeds the %d-byte budget", s.memBytes, budget)
	}
}

// TestMemTierAccountingProperty drives randomized Put/Get/overwrite
// sequences — including same-key overwrites with growing and shrinking
// payloads, the path through promoteMemLocked's in-place update — and
// checks the accounting invariant after every operation.
func TestMemTierAccountingProperty(t *testing.T) {
	const budget = 1 << 10
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, err := Open(t.TempDir(), Options{MemBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const keys = 12
			// resident mirrors what each key's payload should read back
			// as (the model the store is checked against).
			resident := map[int][]byte{}
			payload := func() []byte {
				// Sizes from empty to oversized-for-the-tier: 0..1200,
				// so some payloads bypass the memory tier entirely and
				// most force evictions.
				n := rng.Intn(1200)
				p := make([]byte, n)
				for i := range p {
					p[i] = byte(rng.Intn(256))
				}
				return p
			}

			for op := 0; op < 2000; op++ {
				ki := rng.Intn(keys)
				k := testKey(ki)
				switch rng.Intn(3) {
				case 0, 1: // Put (fresh or overwrite)
					p := payload()
					if err := s.Put(k, p); err != nil {
						t.Fatalf("op %d: Put: %v", op, err)
					}
					resident[ki] = p
				case 2: // Get
					got, _, ok := s.Get(k)
					want, exists := resident[ki]
					if ok != exists {
						t.Fatalf("op %d: Get(%d) ok=%v, model says %v", op, ki, ok, exists)
					}
					if ok && !bytes.Equal(got, want) {
						t.Fatalf("op %d: Get(%d) returned wrong payload", op, ki)
					}
				}
				checkMemInvariant(t, s, budget)
			}
		})
	}
}

// TestMemTierDisabledNeverResident asserts the MemBytes<0 configuration
// keeps the memory tier empty through the same randomized churn.
func TestMemTierDisabledNeverResident(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := Open(t.TempDir(), Options{MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for op := 0; op < 200; op++ {
		k := testKey(rng.Intn(6))
		if rng.Intn(2) == 0 {
			if err := s.Put(k, []byte("x")); err != nil {
				t.Fatal(err)
			}
		} else {
			s.Get(k)
		}
		s.mu.Lock()
		if s.memOrder.Len() != 0 || s.memBytes != 0 {
			s.mu.Unlock()
			t.Fatalf("op %d: disabled memory tier holds %d entries / %d bytes", op, s.memOrder.Len(), s.memBytes)
		}
		s.mu.Unlock()
	}
}

// TestMemoryOnlyStoreProperty drives the same randomized churn through
// a memory-only store, where an evicted entry is gone: a hit must
// return the last payload Put under its key (never a stale one), a
// payload that fits the tier must read back straight after its Put,
// and the accounting invariant holds throughout.
func TestMemoryOnlyStoreProperty(t *testing.T) {
	const budget = 1 << 10
	rng := rand.New(rand.NewSource(3))
	s, err := Open("", Options{MemBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	last := map[int][]byte{}
	for op := 0; op < 2000; op++ {
		ki := rng.Intn(12)
		k := testKey(ki)
		if rng.Intn(3) < 2 {
			p := make([]byte, rng.Intn(1200))
			rng.Read(p)
			if err := s.Put(k, p); err != nil {
				t.Fatalf("op %d: Put: %v", op, err)
			}
			last[ki] = p
			if got, tier, ok := s.Get(k); len(p) <= budget && (!ok || tier != TierMemory || !bytes.Equal(got, p)) {
				t.Fatalf("op %d: fresh %d-byte Put did not read back from memory (ok=%v tier=%v)", op, len(p), ok, tier)
			}
		} else if got, _, ok := s.Get(k); ok && !bytes.Equal(got, last[ki]) {
			t.Fatalf("op %d: Get(%d) returned a stale payload", op, ki)
		}
		checkMemInvariant(t, s, budget)
	}
}

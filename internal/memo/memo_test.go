package memo

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func byteCost(k string) int { return len(k) }

// TestBudgetNeverExceeded streams distinct keys of varying size
// through a byte-budgeted memo: the entries held never cost more than
// the budget, the memo resets rather than refusing new keys, and the
// entry just stored is always retrievable.
func TestBudgetNeverExceeded(t *testing.T) {
	const budget = 1000
	m := New[string, int](budget, byteCost)
	resets := 0
	for i := 0; i < 5000; i++ {
		k := strconv.Itoa(i) + strings.Repeat("x", i%97)
		before := m.Used()
		m.Put(k, i)
		if used := m.Used(); used > budget {
			t.Fatalf("after %d puts: %d bytes held, budget %d", i+1, used, budget)
		} else if used < before {
			resets++
		}
		if v, ok := m.Get(k); !ok || v != i {
			t.Fatalf("Get(%q) = %d, %v right after Put", k, v, ok)
		}
	}
	if resets == 0 {
		t.Fatal("5000 distinct keys never reset a 1000-byte memo")
	}
}

// TestCountBudget checks the nil-cost form: the budget counts entries,
// and re-putting a held key neither costs nor replaces anything.
func TestCountBudget(t *testing.T) {
	m := New[int, string](3, nil)
	for i := 0; i < 3; i++ {
		m.Put(i, "v")
	}
	m.Put(1, "w")
	if got := m.Used(); got != 3 {
		t.Fatalf("Used = %d after 3 keys and one re-put, want 3", got)
	}
	if v, _ := m.Get(1); v != "v" {
		t.Fatalf("Get(1) = %q, want the first value", v)
	}
	m.Put(3, "v") // the fourth key forgets the other three
	if _, ok := m.Get(0); ok {
		t.Fatal("key 0 survived an insert past the budget")
	}
	if v, ok := m.Get(3); !ok || v != "v" || m.Used() != 1 {
		t.Fatalf("after reset: Get(3) = %q, %v; Used = %d, want v, true, 1", v, ok, m.Used())
	}
}

// TestOversizeNotKept: an entry costing more than the whole budget is
// dropped without disturbing what the memo holds.
func TestOversizeNotKept(t *testing.T) {
	m := New[string, int](10, byteCost)
	m.Put("small", 1)
	m.Put(strings.Repeat("x", 11), 2)
	if _, ok := m.Get(strings.Repeat("x", 11)); ok {
		t.Fatal("an 11-byte entry was kept under a 10-byte budget")
	}
	if v, ok := m.Get("small"); !ok || v != 1 || m.Used() != 5 {
		t.Fatalf("oversize put disturbed the memo: Get(small) = %d, %v; Used = %d", v, ok, m.Used())
	}
}

// TestConcurrent hammers one memo from several goroutines; run under
// -race it checks Get and Put are synchronized.
func TestConcurrent(t *testing.T) {
	const budget = 64
	m := New[int, int](budget, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*7919 + i) % 200
				if v, ok := m.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
					return
				}
				m.Put(k, k*k)
			}
		}(g)
	}
	wg.Wait()
	if used := m.Used(); used > budget {
		t.Fatalf("%d entries held, budget %d", used, budget)
	}
}

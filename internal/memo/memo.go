// Package memo is the repo's one process-global memo: a map from a key
// to a value computed from it, safe for concurrent use and held within
// a fixed budget. An insert that would exceed the budget first forgets
// every entry, and an entry costing more than the whole budget is not
// kept: a memo serves a working set far smaller than its budget, so a
// reset is rare and only costs recomputing what is still in use.
package memo

import "sync"

// Memo maps keys to values within a fixed budget. Each entry costs
// cost(k) units of the budget, or 1 when cost is nil, in which case the
// budget counts entries.
type Memo[K comparable, V any] struct {
	budget int
	cost   func(K) int

	mu   sync.RWMutex
	m    map[K]V
	used int
}

// New returns an empty memo with the given budget and entry cost.
func New[K comparable, V any](budget int, cost func(K) int) *Memo[K, V] {
	return &Memo[K, V]{budget: budget, cost: cost, m: map[K]V{}}
}

// Get returns the value stored under k.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.m[k]
	return v, ok
}

// Put stores v under k unless k is already held, first forgetting
// every entry when k would exceed the budget. An entry costing more
// than the budget is not kept.
func (m *Memo[K, V]) Put(k K, v V) {
	c := 1
	if m.cost != nil {
		c = m.cost(k)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, held := m.m[k]; held || c > m.budget {
		return
	}
	if m.used+c > m.budget {
		m.m, m.used = map[K]V{}, 0
	}
	m.m[k], m.used = v, m.used+c
}

// Used returns the budget units the entries hold.
func (m *Memo[K, V]) Used() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.used
}

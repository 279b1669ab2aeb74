package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

// NodeSet is a set of node IDs backed by a dense bitset. Node IDs are
// dense and assigned from 0 (see NodeID), so a word array with hardware
// popcount gives O(1) membership tests and O(n/64) bulk operations
// without the per-element allocation and hashing cost of a map — the
// partitioning hot paths in internal/core test and mutate candidate
// sets millions of times per run.
//
// NodeSet has reference semantics, like the map it replaced: copying a
// NodeSet value yields a handle to the same underlying set, and Clone
// makes an independent copy. The zero value is not usable; construct
// with NewNodeSet.
type NodeSet struct {
	b *bitset
}

// bitset is the shared backing store of a NodeSet.
type bitset struct {
	words []uint64
	n     int // cached cardinality
}

// NewNodeSet returns a set containing the given IDs.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := NodeSet{b: &bitset{}}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id. IDs must be non-negative (graph node IDs always are).
func (s NodeSet) Add(id NodeID) {
	if id < 0 {
		panic(fmt.Sprintf("graph: NodeSet.Add of negative id %d", id))
	}
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w >= len(s.b.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.b.words)
		s.b.words = grown
	}
	if s.b.words[w]&bit == 0 {
		s.b.words[w] |= bit
		s.b.n++
	}
}

// Remove deletes id if present.
func (s NodeSet) Remove(id NodeID) {
	if id < 0 {
		return
	}
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w < len(s.b.words) && s.b.words[w]&bit != 0 {
		s.b.words[w] &^= bit
		s.b.n--
	}
}

// Has reports membership.
func (s NodeSet) Has(id NodeID) bool {
	if s.b == nil || id < 0 {
		return false
	}
	w := int(id) >> 6
	return w < len(s.b.words) && s.b.words[w]&(1<<(uint(id)&63)) != 0
}

// Len returns the cardinality.
func (s NodeSet) Len() int {
	if s.b == nil {
		return 0
	}
	return s.b.n
}

// Clone returns an independent copy. The copy keeps the words up to
// its highest member, and when they are few it keeps them in its
// header's own allocation, so cloning a set of up to 1,024 IDs
// allocates once.
func (s NodeSet) Clone() NodeSet {
	w := s.b.words
	for len(w) > 0 && w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	var c *bitset
	switch {
	case len(w) <= 2:
		o := new(struct {
			bitset
			inline [2]uint64
		})
		c, o.words = &o.bitset, o.inline[:len(w)]
	case len(w) <= 16:
		o := new(struct {
			bitset
			inline [16]uint64
		})
		c, o.words = &o.bitset, o.inline[:len(w)]
	default:
		c = &bitset{words: make([]uint64, len(w))}
	}
	copy(c.words, w)
	c.n = s.b.n
	return NodeSet{b: c}
}

// Clear removes every member, keeping the backing storage for reuse.
func (s NodeSet) Clear() {
	for i := range s.b.words {
		s.b.words[i] = 0
	}
	s.b.n = 0
}

// ForEach calls f for every member in ascending ID order.
func (s NodeSet) ForEach(f func(NodeID)) {
	if s.b == nil {
		return
	}
	for wi, w := range s.b.words {
		base := NodeID(wi << 6)
		for w != 0 {
			f(base + NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Sorted returns the members in ascending order.
func (s NodeSet) Sorted() []NodeID {
	if s.b == nil || s.b.n == 0 {
		return []NodeID{}
	}
	out := make([]NodeID, 0, s.b.n)
	s.ForEach(func(id NodeID) { out = append(out, id) })
	return out
}

// AppendSorted appends the members in ascending order to dst and
// returns the extended slice; an allocation-free Sorted for hot paths.
func (s NodeSet) AppendSorted(dst []NodeID) []NodeID {
	s.ForEach(func(id NodeID) { dst = append(dst, id) })
	return dst
}

// Equal reports whether s and t contain the same members.
func (s NodeSet) Equal(t NodeSet) bool {
	if s.Len() != t.Len() {
		return false
	}
	if s.b == nil || t.b == nil {
		return true // both empty
	}
	a, b := s.b.words, t.b.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share any member.
func (s NodeSet) Intersects(t NodeSet) bool {
	if s.b == nil || t.b == nil {
		return false
	}
	a, b := s.b.words, t.b.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// String renders the set as "{n1 n4 n7}" using sorted IDs; useful in
// tests and trace output.
func (s NodeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id NodeID) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "n%d", id)
	})
	b.WriteByte('}')
	return b.String()
}

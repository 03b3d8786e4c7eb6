package ruleeval

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"github.com/corleone-em/corleone/internal/stats"
)

// RowSet is a set of row indexes of one candidate set: a bitset over the
// fixed universe [0, n) with its cardinality cached. Every row set
// downstream of blocking — a rule's coverage, §4.2's contradiction set T,
// the labeled and pool sets of joint evaluation, the estimator's alive and
// sampled sets, the locator's covered set — is this one type, so their
// algebra is word operations and their sizes are popcounts.
//
// Two invariants keep reflect.DeepEqual on values that embed a RowSet
// meaningful: no bit at or above n is ever set, and count always equals the
// number of set bits. Binary operations require both operands to share a
// universe and panic otherwise (mixing rows of different candidate sets is
// a bug, never an input).
type RowSet struct {
	words []uint64
	n     int
	count int
}

// NewRowSet returns the empty set over [0, n).
func NewRowSet(n int) *RowSet {
	return &RowSet{words: make([]uint64, (n+63)/64), n: n}
}

// FullRowSet returns the set of every row in [0, n).
func FullRowSet(n int) *RowSet {
	s := NewRowSet(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(n % 64); tail != 0 {
		s.words[len(s.words)-1] = 1<<tail - 1
	}
	s.count = n
	return s
}

// Universe returns n, the number of rows the set ranges over.
func (s *RowSet) Universe() int { return s.n }

// Len returns the number of rows in the set.
func (s *RowSet) Len() int { return s.count }

// Has reports whether row i is in the set.
func (s *RowSet) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Add inserts row i, which must lie in [0, n).
func (s *RowSet) Add(i int) {
	if i < 0 || i >= s.n {
		panic("ruleeval: row outside the set's universe")
	}
	w, b := &s.words[i>>6], uint64(1)<<uint(i&63)
	if *w&b == 0 {
		*w |= b
		s.count++
	}
}

// Clone returns an independent copy.
func (s *RowSet) Clone() *RowSet {
	c := NewRowSet(s.n)
	c.Set(s)
	return c
}

// Set makes s equal to t.
func (s *RowSet) Set(t *RowSet) {
	s.same(t)
	copy(s.words, t.words)
	s.count = t.count
}

// Clear empties the set.
func (s *RowSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Or adds every row of t to s.
func (s *RowSet) Or(t *RowSet) {
	s.same(t)
	c := 0
	for i, w := range t.words {
		s.words[i] |= w
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// And keeps only the rows of s that are also in t.
func (s *RowSet) And(t *RowSet) {
	s.same(t)
	c := 0
	for i, w := range t.words {
		s.words[i] &= w
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// AndNot removes every row of t from s.
func (s *RowSet) AndNot(t *RowSet) {
	s.same(t)
	c := 0
	for i, w := range t.words {
		s.words[i] &^= w
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// AndCount returns |s ∩ t| without building the intersection.
func (s *RowSet) AndCount(t *RowSet) int {
	s.same(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// AppendTo appends the set's rows to dst in ascending order.
func (s *RowSet) AppendTo(dst []int) []int {
	dst = slices.Grow(dst, s.count)
	for wi, w := range s.words {
		for base := wi << 6; w != 0; w &= w - 1 {
			dst = append(dst, base+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// RowSampler draws uniform samples of row sets, reusing its buffers from
// one draw to the next (the loops that sample run once per round or probe
// over sets as large as the candidate set).
type RowSampler struct {
	ranks stats.Sampler
	cum   []int // cum[w] is the number of rows in the words before w
}

// Draw returns k rows of s drawn uniformly without replacement (all of
// them, shuffled, if s has fewer; none if k <= 0). The base order is the
// set's ascending enumeration and the draws are stats.SampleIndices', so a
// seeded rng yields the rows a sorted []int pool would, for O(k) work and
// one popcount sweep over the words. The result is valid until the next Draw.
func (d *RowSampler) Draw(rng *rand.Rand, s *RowSet, k int) []int {
	out := d.ranks.Draw(rng, s.count, k)
	d.cum = append(slices.Grow(d.cum[:0], len(s.words)+1), 0)
	for i, w := range s.words {
		d.cum = append(d.cum, d.cum[i]+bits.OnesCount64(w))
	}
	for i, r := range out {
		wi := sort.SearchInts(d.cum, r+1) - 1 // cum[wi] <= r < cum[wi+1]
		w := s.words[wi]
		for skip := r - d.cum[wi]; skip > 0; skip-- {
			w &= w - 1
		}
		out[i] = wi<<6 + bits.TrailingZeros64(w)
	}
	return out
}

func (s *RowSet) same(t *RowSet) {
	if s.n != t.n {
		panic("ruleeval: row sets over different universes")
	}
}

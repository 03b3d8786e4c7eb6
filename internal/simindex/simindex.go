// Package simindex implements an inverted-index similarity join over
// precomputed similarity profiles. It answers one question fast: given a
// probe record and a threshold θ, which rows of an indexed table COULD have
// set-based similarity strictly greater than θ? The answer is a provably
// complete superset of the true result — the caller re-verifies each
// candidate exactly — so the index can be dropped in front of any exact
// evaluator without changing its output.
//
// This is the machine-side pruning that crowdsourced-EM systems (CrowdER,
// and Corleone's own §4.3 Hadoop offload) use to avoid the O(|A|·|B|)
// Cartesian scan: when a blocking rule has the shape sim(f) ≤ θ → No, the
// survivors are exactly the pairs with sim(f) > θ, which an inverted index
// over tokens enumerates without ever visiting the rest of the product.
//
// Supported measures are the feature library's set-based similarities —
// word Jaccard, q-gram Jaccard, word overlap coefficient, and TF/IDF
// cosine, answered from token postings — and the numeric relative
// difference, answered from a sorted band (see appendBand). For Jaccard the index additionally applies length filtering
// (|b| must lie in [θ·|a|, |a|/θ]) and prefix filtering (a qualifying pair
// must share a token among the first |a| − ⌈θ·|a|⌉ + 1 probe tokens); both
// filters only ever discard rows that cannot clear θ, so completeness is
// preserved. All floating-point bounds are slackened by a small epsilon
// toward inclusion: a borderline row costs one wasted verification, never
// a lost candidate.
//
// A rule that conjoins several such predicates, sim(f₁) ≤ θ₁ ∧ … ∧
// sim(f_k) ≤ θ_k → No, keeps exactly ⋃ᵢ {sim(fᵢ) > θᵢ}; Union answers
// that from one index per feature over the same rows, and Candidates is
// the union of one.
package simindex

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/corleone-em/corleone/internal/similarity"
)

// Kind names the similarity measure an Index accelerates.
type Kind int

const (
	// JaccardWords is the Jaccard coefficient over distinct word tokens
	// (feature kind "jaccard_w", profile field WordIDs).
	JaccardWords Kind = iota
	// JaccardQGrams is the Jaccard coefficient over distinct padded 3-grams
	// (feature kind "jaccard_3g", profile field Grams).
	JaccardQGrams
	// OverlapWords is the overlap coefficient over distinct word tokens
	// (feature kind "overlap_w").
	OverlapWords
	// CosineTFIDF is the corpus-weighted cosine (feature kind "tfidf_cos",
	// profile field TFIDF).
	CosineTFIDF
	// BandRelDiff is the numeric relative difference 1 − |a−b|/max(|a|,|b|)
	// (feature kind "rel_diff", profile field Numeric): not a token index
	// but the rows sorted by value, probed with a value range.
	BandRelDiff
)

// KindOf maps a feature-library measure name to its index kind. The second
// return is false for measures the index cannot accelerate.
func KindOf(measure string) (Kind, bool) {
	switch measure {
	case "jaccard_w":
		return JaccardWords, true
	case "jaccard_3g":
		return JaccardQGrams, true
	case "overlap_w":
		return OverlapWords, true
	case "tfidf_cos":
		return CosineTFIDF, true
	case "rel_diff":
		return BandRelDiff, true
	default:
		return 0, false
	}
}

// eps slackens every floating-point filter bound toward inclusion. The
// quantities involved are ratios and products of small integers with a
// float64 threshold, so their rounding error is many orders of magnitude
// below 1e-9; the slack turns any boundary rounding into at most one extra
// candidate, never a missed one.
const eps = 1e-9

// Index is a similarity-join index over one attribute column of the indexed
// table. Build it once per (feature, table); it is read-only afterwards and
// safe for concurrent probes. Everything it holds is a flat slice — a
// handful of allocations that outlive the build, whatever the vocabulary —
// so Footprint is exact.
type Index struct {
	kind Kind
	// n is the number of rows indexed, present or not: the universe the
	// candidate ids and a Scratch's marks range over.
	n int

	// The set kinds keep an inverted index of the rows' sets (Postings). For
	// CosineTFIDF, zero-weight tokens (IDF 0) are not indexed: they
	// contribute nothing to any dot product, so a pair whose only shared
	// tokens are zero-weight scores 0 and cannot exceed θ ≥ 0.
	post Postings
	// size[r] is the indexed-token (or distinct-gram) set size of row r; 0
	// for rows with a missing value or an empty set.
	size []int32
	// emptySet lists rows whose value is present (Norm != "") but whose
	// token set is empty (e.g. pure punctuation). Set measures score such
	// rows 1 (Jaccard, overlap) or 0.5 (cosine) against equally token-less
	// probes, so they are candidates exactly for token-less probes.
	emptySet []int32

	// BandRelDiff keeps the rows with a finite parsed numeric sorted by
	// value — vals[i] belongs to row valRows[i] — and, apart, the rows whose
	// numeric is ±Inf or NaN: RelativeDiff against those is NaN for most
	// probes, NaN fails the rule's "≤ θ" test, and so they survive whatever
	// θ is and are candidates of every probe.
	vals      []float64
	valRows   []int32
	nonFinite []int32
}

// keys returns the distinct-token codes of p that kind compares on, or nil
// when the value is missing. The bool reports whether the value is present.
func keys(kind Kind, p *similarity.Profile) ([]uint64, bool) {
	if p == nil || p.Norm == "" {
		return nil, false
	}
	switch kind {
	case JaccardWords, OverlapWords:
		return p.WordIDs, true
	case JaccardQGrams:
		return p.Grams, true
	case CosineTFIDF:
		return p.WordIDs, p.TFIDF != nil
	}
	return nil, false
}

// weightless reports whether p's i-th token is a zero-weight cosine term:
// it cannot contribute to any dot product, so it is neither indexed nor
// probed.
func weightless(kind Kind, p *similarity.Profile, i int) bool {
	return kind == CosineTFIDF && p.TFIDF.W[i] == 0
}

// Build indexes the profile column of the table being probed against
// (table B in the blocker). Rows with missing values (Norm == "", or an
// unparseable numeric) are not indexed: the feature layer maps them to the
// Missing sentinel (−1), which can never exceed a threshold θ ≥ 0.
func Build(kind Kind, profs []*similarity.Profile) *Index {
	ix := &Index{kind: kind, n: len(profs)}
	if kind == BandRelDiff {
		ix.buildBand(profs)
	} else {
		ix.buildPostings(profs)
	}
	return ix
}

// Postings is an inverted index in compressed-row layout: Toks holds the
// distinct token codes (vocabulary rank or packed 3-gram, as the profiles
// carry them) ascending, and the rows whose set contains Toks[s] are
// Rows[Off[s]:Off[s+1]], ascending. An Index probes one for candidates; the
// feature package's column kernels walk one to count intersections.
type Postings struct {
	Toks      []uint64
	Off, Rows []int32
}

// BuildPostings inverts rows 0..n-1 in two passes; set(r) is row r's
// distinct codes (nil: not indexed), asked for once per pass and read only
// until the next call. The first pass counts each token's rows in a map that
// lives only for the build; its keys, sorted, are Toks, and the counts in
// that order are Off. The second drops each row into its tokens' lists in
// row order, so every list comes out ascending, and tells visit (if any)
// which entry of Rows the i-th code of row r became.
func BuildPostings(n int, set func(r int) []uint64, visit func(entry, r, i int)) Postings {
	slot := make(map[uint64]int32) // token → postings length, then → slot
	total := 0
	for r := 0; r < n; r++ {
		ks := set(r)
		for _, t := range ks {
			slot[t]++
		}
		total += len(ks)
	}
	p := Postings{Toks: make([]uint64, 0, len(slot)), Rows: make([]int32, total)}
	for t := range slot {
		p.Toks = append(p.Toks, t)
	}
	slices.Sort(p.Toks)
	// Off[s] starts as where token s's list begins; the fill below advances
	// it to the list's end — the next token's start — and the shift after it
	// puts every start back, one slot to the right of a leading 0.
	p.Off = make([]int32, len(p.Toks), len(p.Toks)+1)
	at := int32(0)
	for s, t := range p.Toks {
		p.Off[s], at = at, at+slot[t]
		slot[t] = int32(s)
	}
	for r := 0; r < n; r++ {
		for i, t := range set(r) {
			s := slot[t]
			p.Rows[p.Off[s]] = int32(r)
			if visit != nil {
				visit(int(p.Off[s]), r, i)
			}
			p.Off[s]++
		}
	}
	p.Off = append(p.Off, 0)
	copy(p.Off[1:], p.Off)
	p.Off[0] = 0
	return p
}

// buildPostings indexes the column's sets, less the zero-weight cosine
// terms, and records each row's indexed size and the token-less rows.
func (ix *Index) buildPostings(profs []*similarity.Profile) {
	ix.size = make([]int32, len(profs))
	var buf []uint64
	indexed := func(r int) []uint64 {
		ks, ok := keys(ix.kind, profs[r])
		if !ok {
			return nil
		}
		if ix.kind != CosineTFIDF {
			return ks
		}
		buf = buf[:0]
		for i, t := range ks {
			if !weightless(ix.kind, profs[r], i) {
				buf = append(buf, t)
			}
		}
		return buf
	}
	for r, p := range profs {
		if ks, ok := keys(ix.kind, p); ok && len(ks) == 0 {
			ix.emptySet = append(ix.emptySet, int32(r))
		}
		ix.size[r] = int32(len(indexed(r)))
	}
	ix.post = BuildPostings(len(profs), indexed, nil)
}

// buildBand sorts the rows holding a finite numeric by (value, row).
func (ix *Index) buildBand(profs []*similarity.Profile) {
	finite := 0
	for _, p := range profs {
		if p != nil && p.NumericOK && !math.IsNaN(p.Numeric) && !math.IsInf(p.Numeric, 0) {
			finite++
		}
	}
	ix.valRows = make([]int32, 0, finite)
	for r, p := range profs {
		switch {
		case p == nil || !p.NumericOK:
		case math.IsNaN(p.Numeric) || math.IsInf(p.Numeric, 0):
			ix.nonFinite = append(ix.nonFinite, int32(r))
		default:
			ix.valRows = append(ix.valRows, int32(r))
		}
	}
	slices.SortFunc(ix.valRows, func(x, y int32) int {
		if c := cmp.Compare(profs[x].Numeric, profs[y].Numeric); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	ix.vals = make([]float64, len(ix.valRows))
	for i, r := range ix.valRows {
		ix.vals[i] = profs[r].Numeric
	}
}

// Tokens returns the number of distinct indexed tokens (diagnostics).
func (ix *Index) Tokens() int { return len(ix.post.Toks) }

// Footprint returns the index's resident bytes, exactly: every slice it
// holds at its element width. It is the quantity sharded execution bounds
// per worker — at billions of candidate pairs the postings lists are the
// dominant memory term of the blocking scan.
func (ix *Index) Footprint() int64 {
	return 8*int64(len(ix.post.Toks)+len(ix.vals)) +
		4*int64(len(ix.post.Off)+len(ix.post.Rows)+len(ix.size)+len(ix.emptySet)+len(ix.valRows)+len(ix.nonFinite))
}

// Scratch carries one probe's reusable working state: a two-level bitmap
// over the indexed rows (bit r%64 of words[r/64] marks row r, bit w%64 of
// sum[w/64] a nonzero words[w]), the candidates collect emits from it, and
// the probe's tokens keyed for ordering. Marking is two ORs, so a union
// dedupes without a branch; collect walks the summary, emits ascending and
// clears what it visits, so a probe costs O(n/4096 + touched words +
// candidates) and leaves the bitmap empty. One Scratch serves one goroutine.
type Scratch struct {
	words, sum []uint64
	n          int // rows of the index being probed
	cand       []int32
	// order holds one key per probe token, postings length in the high word
	// and the token's position in the low one; slot[position] is the token's
	// index into toks, or −1.
	order []uint64
	slot  []int32
}

// NewScratch returns an empty scratch; it grows to the indexed table's size
// on first use.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) reset(n int) {
	if cap(s.cand) < n {
		// A probe has at most n candidates: sized with the bitmap, the list
		// never grows.
		nw := (n + 63) >> 6
		s.words = make([]uint64, nw)
		s.sum = make([]uint64, (nw+63)>>6)
		s.cand = make([]int32, 0, n)
	}
	s.n = n
}

// add marks row r as a candidate of this probe.
func (s *Scratch) add(r int32) {
	w := uint32(r) >> 6
	s.words[w] |= 1 << (uint32(r) & 63)
	s.sum[w>>6] |= 1 << (w & 63)
}

// collect returns the marked rows, ascending, and clears their marks.
func (s *Scratch) collect() []int32 {
	cand := s.cand[:0]
	sum := s.sum[:(s.n+4095)>>12]
	for i, x := range sum {
		for ; x != 0; x &= x - 1 {
			w := i<<6 | bits.TrailingZeros64(x)
			for y := s.words[w]; y != 0; y &= y - 1 {
				cand = append(cand, int32(w<<6|bits.TrailingZeros64(y)))
			}
			s.words[w] = 0
		}
		sum[i] = 0
	}
	s.cand = cand
	return cand
}

// Candidates returns the ascending row ids of every indexed row whose
// similarity to probe could strictly exceed theta (theta ≥ 0): a complete
// superset of {r : sim(probe, r) > theta}, or more exactly of the rows the
// rule predicate "sim ≤ theta" does not remove. The returned slice aliases
// the scratch and is valid until the next call with the same scratch.
//
// Completeness argument for the set kinds, per filter (appendBand has the
// band's):
//
//   - Postings. Every supported measure scores 0 when exactly one side's
//     token set is empty, and sim > θ ≥ 0 requires either a shared token
//     (when the probe has tokens — for cosine, a shared positive-weight
//     token, and zero-weight tokens are exactly the ones not indexed) or
//     two empty sets (scored 1, or 0.5 for cosine — the emptySet rows).
//     Probing every token's postings list therefore reaches every
//     qualifying row.
//   - Length filter (Jaccard only). J(a,b) ≤ min(|a|,|b|)/max(|a|,|b|), so
//     J > θ forces θ·|a| < |b| < |a|/θ; rows outside the (ε-slackened)
//     bound cannot qualify.
//   - Prefix filter (Jaccard only). J > θ and |b| > θ·|a| force the shared
//     distinct-token count I > θ·|a|, i.e. I ≥ minI with
//     minI = max(1, ⌊θ·|a| − ε⌋ + 1). If a row shares none of the first
//     |a| − minI + 1 probe tokens, all shared tokens lie among the
//     remaining minI − 1, so I < minI — the row cannot qualify and probing
//     only the prefix is complete. (The argument counts distinct shared
//     tokens only, so it holds for any fixed token order; we order the
//     probe's tokens by ascending postings-list length so the prefix holds
//     its rarest tokens, maximizing pruning.)
//
// Rows whose value is missing are never returned (their feature value is
// the Missing sentinel −1 ≤ θ); a probe with a missing value returns none
// for the same reason.
func (ix *Index) Candidates(probe *similarity.Profile, theta float64, s *Scratch) []int32 {
	return Union([]*Index{ix}, []*similarity.Profile{probe}, []float64{theta}, s)
}

// Union returns the ascending, duplicate-free union of the candidates of
// probes[i] at thetas[i] in ixs[i] — a complete superset of the rows that
// survive the rule sim(f₁) ≤ θ₁ ∧ … ∧ sim(f_k) ≤ θ_k, one index per
// conjunct. The indexes must cover the same rows (one Build per feature
// over one table or shard). Every term marks its rows in the scratch's
// bitmap and one collect emits them in order, so there is nothing to sort;
// the returned slice aliases the scratch like Candidates'.
func Union(ixs []*Index, probes []*similarity.Profile, thetas []float64, s *Scratch) []int32 {
	s.reset(ixs[0].n)
	for i, ix := range ixs {
		if ix.n != ixs[0].n {
			panic("simindex: union over indexes of different row sets")
		}
		ix.appendTo(s, probes[i], thetas[i])
	}
	return s.collect()
}

// appendTo marks probe's candidates at theta in the scratch's bitmap; a row
// an earlier term of the same union marked stays marked once.
func (ix *Index) appendTo(s *Scratch, probe *similarity.Profile, theta float64) {
	if theta < 0 {
		// Callers gate on θ ≥ 0; below 0 the survivor set is "any pair with
		// a present value", which no index here enumerates.
		panic("simindex: negative threshold")
	}
	if ix.kind == BandRelDiff {
		ix.appendBand(s, probe, theta)
		return
	}
	ks, ok := keys(ix.kind, probe)
	if !ok {
		return
	}
	if len(ks) == 0 {
		// Token-less probe: only equally token-less rows score above 0.
		for _, r := range ix.emptySet {
			s.add(r)
		}
		return
	}
	sa := len(ks)
	prefix := sa
	var sbLo, sbHi float64 = 0, math.Inf(1)
	if ix.kind == JaccardWords || ix.kind == JaccardQGrams {
		minI := int(math.Floor(theta*float64(sa)-eps)) + 1
		if minI < 1 {
			minI = 1
		}
		prefix = sa - minI + 1
		if prefix < 0 {
			prefix = 0 // θ·|a| ≥ |a| ⟹ no row can overlap enough
		}
		sbLo = theta*float64(sa) - eps
		if theta > 0 {
			sbHi = float64(sa)/theta + eps
		}
	}

	// The completeness argument holds for any fixed order of the probe's
	// tokens, so when the prefix filter is active we probe the tokens with
	// the shortest postings lists first (position breaking ties): the
	// prefix then consists of the rarest tokens, which shrinks the
	// candidate set by orders of magnitude on skewed vocabularies without
	// giving up a single qualifying row.
	ord, slot := s.order[:0], s.slot[:0]
	for i, t := range ks {
		sl, found := slices.BinarySearch(ix.post.Toks, t)
		var n int32
		if found {
			n = ix.post.Off[sl+1] - ix.post.Off[sl]
		} else {
			sl = -1
		}
		slot = append(slot, int32(sl))
		ord = append(ord, uint64(n)<<32|uint64(i))
	}
	s.order, s.slot = ord, slot
	if prefix < sa {
		slices.Sort(ord)
	}

	for _, key := range ord[:prefix] {
		i := uint32(key)
		if slot[i] < 0 || weightless(ix.kind, probe, int(i)) {
			continue // a token no row has, or one that adds nothing
		}
		for _, r := range ix.post.Rows[ix.post.Off[slot[i]]:ix.post.Off[slot[i]+1]] {
			if sb := float64(ix.size[r]); sb < sbLo || sb > sbHi {
				// Outside the length bound for this term. Not marked: a
				// later term of the union may still want the row.
				continue
			}
			s.add(r)
		}
	}
}

// appendBand adds the rows the predicate rel_diff ≤ theta does not remove
// from probe's pairs. With a = probe's value and b a row's, RelativeDiff is
// 1 for a == b, else max(0, 1 − |a−b|/max(|a|,|b|)).
//
// For finite a > 0: a row with b < 0 scores 0 (|a−b| exceeds both |a| and
// |b|), as does b = 0, so neither can exceed θ ≥ 0. For 0 < b ≤ a the score
// is b/a, and for b ≥ a it is a/b, so sim > θ is exactly θ·a < b < a/θ — a
// contiguous run of the value-sorted rows, found by two binary searches.
// The computed score differs from the exact ratio by at most three roundings
// (the subtraction, the division, the final 1 − x: under 4e-16 absolute), so
// the band is cut at θ − ε instead of θ: (θ−ε)·a ≤ b ≤ a/(θ−ε), whose own
// two roundings are eight orders of magnitude inside the slack; for θ ≤ ε it
// is every finite row. Overflow of a/(θ−ε) to +Inf and underflow of
// (θ−ε)·a to 0 both widen the band.
//
// Every other present probe — zero, negative, ±Inf, NaN — conservatively
// gets every present row: such values are rare where rel_diff rules are
// learned (prices, years), and "all rows" is trivially complete. Rows with a
// non-finite value join every probe's candidates (see Index.nonFinite).
// Missing or unparseable values on either side give Missing (−1) ≤ θ and are
// never candidates.
func (ix *Index) appendBand(s *Scratch, probe *similarity.Profile, theta float64) {
	if probe == nil || !probe.NumericOK {
		return
	}
	lo, hi := 0, len(ix.vals)
	if a, t := probe.Numeric, theta-eps; a > 0 && !math.IsInf(a, 1) && t > 0 {
		lo, _ = slices.BinarySearch(ix.vals, t*a)
		hi = lo + sort.Search(len(ix.vals)-lo, func(i int) bool { return ix.vals[lo+i] > a/t })
	}
	for _, r := range ix.valRows[lo:hi] {
		s.add(r)
	}
	for _, r := range ix.nonFinite {
		s.add(r)
	}
}

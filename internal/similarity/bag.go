package similarity

import "math"

// Bags: a cheap upper bound on edit and Jaro-Winkler similarity, so a
// verifier can settle "sim ≤ θ" for most pairs without running Myers or the
// Jaro matcher (DESIGN.md §6.1 "Bounds before kernels").
//
// A value's bag counts its runes in 32 buckets (bucket). c, the sum over
// buckets of the smaller of the two counts, is at least the number of runes
// the two values have in common as multisets: merging classes only raises
// the sum of minima. Both measures are capped by c:
//
//   - edit: the Levenshtein distance is at least the bag distance
//     max(|a|,|b|) − c, and EditSim is 1 − distance/max(|a|,|b|);
//   - Jaro: the matcher pairs equal runes one to one, so its match count is
//     at most c, and with no transpositions Jaro is largest.
//
// The bounds run the kernels' own float formulas on those integers. Every
// operation in 1 − d/m and in jaroOf is a correctly rounded division, sum or
// difference, each monotone in its operands, so a bound from a larger c or a
// smaller d is never below the kernel's float, bit for bit. Winkler's
// j + l·0.1·(1−j) is not: 1−j falls as j rises, and rounding the product and
// the sum can leave a larger j an ulp lower. The exact-real boost is
// increasing in j, and the three roundings (two, fused) put the float within
// 2⁻⁵² of it, so two values of j are out of order by at most 2·2⁻⁵²; the
// Jaro-Winkler bound adds winklerSlack = 4·2⁻⁵², which covers that and its
// own rounding. This is slack, not a proof of monotonicity: it leaves
// undecided only the pairs whose bound lies within 2⁻⁵⁰ above θ.

// winklerSlack is what JaroWinklerBound adds to the boosted Jaro bound: four
// ulps of 1, twice the most by which rounding can invert two boosted values.
const winklerSlack = 0x1p-50

// Bag is the folded character bag of one value: bucket k's rune count in
// byte k%8 of lanes[k/8], the rune count, and the first four runes, which
// fix Winkler's prefix. A bucket over 127 would not fit the SWAR minimum's
// 7-bit lanes; such a bag has no bound (ok false).
type Bag struct {
	lanes [4]uint64
	n     int
	head  [4]rune
	ok    bool
}

// NewBag builds the bag of a value's runes.
func NewBag(runes []rune) Bag {
	var cnt [32]int
	for _, r := range runes {
		cnt[bucket(r)]++
	}
	b := Bag{n: len(runes), ok: true}
	for k, c := range cnt {
		b.ok = b.ok && c <= 127
		b.lanes[k/8] |= uint64(c&0x7f) << (8 * (k % 8))
	}
	copy(b.head[:], runes)
	return b
}

// bucket folds a rune into one of the bag's 32 buckets: a letter of either
// case into its own (1–26), the space into 0, the rest of ASCII — digits and
// punctuation — into 27–31 by its value mod 5, which keeps the '.', ',' and
// '-' of names and model numbers apart, and any wider rune by its low five
// bits.
func bucket(r rune) int {
	switch {
	case 'a' <= r && r <= 'z':
		return int(r - 'a' + 1)
	case 'A' <= r && r <= 'Z':
		return int(r - 'A' + 1)
	case r == ' ':
		return 0
	case 0 <= r && r < 128:
		return 27 + int(r%5)
	}
	return int(r & 31)
}

const (
	laneHigh = 0x8080808080808080
	laneEven = 0x00ff00ff00ff00ff
	laneSum  = 0x0001000100010001
)

// common is the sum over buckets of the smaller count. Per word, a lane's
// high bit of (x|0x80…) − y is set where x ≥ y — no lane borrows from the
// next, every count being ≤ 127 — and that bit, spread to the lane's low
// seven, picks y over x. The eight byte minima widen into four 16-bit sums
// per word, and the four words' sums add in 16-bit lanes (at most 1,016
// each) before one multiply folds them.
func (a *Bag) common(b *Bag) int {
	var sum uint64
	for i := range a.lanes {
		x, y := a.lanes[i], b.lanes[i]
		ge := ((x | laneHigh) - y) & laneHigh
		m := ge - ge>>7
		mins := y&m | x&^m
		sum += mins&laneEven + mins>>8&laneEven
	}
	return int(sum * laneSum >> 48)
}

// EditSimBound is at least EditSimProfiles of the two values, or +Inf when
// either bag has no bound.
func EditSimBound(a, b *Bag) float64 {
	if !a.ok || !b.ok {
		return math.Inf(1)
	}
	m := max(a.n, b.n)
	if m == 0 {
		return 1
	}
	return 1 - float64(m-a.common(b))/float64(m)
}

// JaroWinklerBound is at least JaroWinklerProfiles of the two values, or
// +Inf when either bag has no bound.
func JaroWinklerBound(a, b *Bag) float64 {
	if !a.ok || !b.ok {
		return math.Inf(1)
	}
	if a.n == 0 && b.n == 0 {
		return 1
	}
	l, n := 0, min(a.n, b.n, 4)
	for l < n && a.head[l] == b.head[l] {
		l++
	}
	return boost(jaroOf(a.common(b), 0, a.n, b.n), l) + winklerSlack
}

package similarity

import "math/bits"

// Bit-parallel Jaro. The textbook matcher walks a in order and, for each
// a[i], takes the first still-unmatched j inside the window
// [i-window, i+window] with b[j] == a[i] — an O(|a|·window) loop. Here the
// positions of every rune of b are bit masks (bit j set where b[j] is that
// rune), so the same choice is three word operations:
//
//	cand = mask[a[i]] & window(i) &^ matchedB
//
// holds exactly the j the loop would test and accept, and its lowest set
// bit is the first of them. The matched set after step i is therefore the
// loop's matched set after step i, by induction, and the transposition
// count — the k-th matched rune of a against the k-th matched position of
// b — reads off the same bits. The masks index b, the side the loop
// searches.
//
// The score is symmetric, bit for bit: Jaro(a, b) = Jaro(b, a). Runes never
// compete, since cand is masked to one rune's positions; and for one rune,
// first fit over a's positions P against b's positions Q is a merge — a q
// below p−window is dead for every later p and is dropped, a p with no q up
// to p+window has no partner and is dropped, else the two pair — whose cases
// mirror when P and Q swap. So both orders pair the same positions, with
// the same match and transposition counts; jaroWindow takes a max,
// m/la + m/lb is one commutative IEEE addition, and the Winkler prefix is
// common to both. TokenPairs relies on it (DESIGN.md "Why the masks sit on
// b"; TestJaroWinklerSymmetric, FuzzJaroWinklerSymmetric).
//
// b of up to 64 runes fits one word (jaroSingle); longer b uses ⌈|b|/64⌉
// words per rune (jaroBlocks), touching only the words the window covers.
// The one-word matcher has two halves, b's masks built (buildMasks) and an a
// matched against them (jaroAgainst): jaroRunes joins them for one pair, a
// tile of rows (JaroWinklerTile) and the Monge-Elkan column build once for
// many a.

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	return jaroRunes([]rune(a), []rune(b), nil)
}

func jaroRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	if s == nil {
		s = new(Scratch)
	}
	if lb > 64 {
		matches, trans := jaroBlocks(ra, rb, jaroWindow(la, lb), s)
		return jaroOf(matches, trans, la, lb)
	}
	peq, over := s.buildMasks(rb)
	j := jaroAgainst(ra, rb, peq, over)
	s.wipeMasks(rb, over)
	return j
}

// jaroWindow is how far from a[i] the matcher looks for its partner in b.
func jaroWindow(la, lb int) int {
	return max(max(la, lb)/2-1, 0)
}

// jaroOf is Jaro's formula over the matcher's two counts.
func jaroOf(matches, trans, la, lb int) float64 {
	if matches == 0 {
		return 0
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// jaroAgainst is the Jaro of a against a b of 1..64 runes whose masks
// buildMasks has set (an empty a scores 0). It is the second half of the one
// single-word matcher: jaroRunes builds b's masks for one a, the tile and
// Monge-Elkan's column (JaroWinklerTile, TokenPairs.MongeElkanColumn) once
// for many.
func jaroAgainst(ra, rb []rune, peq *[asciiTableSize]uint64, over map[rune]uint64) float64 {
	matches, trans := jaroSingle(ra, rb, jaroWindow(len(ra), len(rb)), peq, over)
	return jaroOf(matches, trans, len(ra), len(rb))
}

// jaroSingle matches a against a b of 1..64 runes, given b's masks, and
// returns the match and transposition counts. The window is two masks that
// slide with i: inside holds the positions up to i+window, below those before
// i-window; both saturate at all-ones (Go shifts of 64 or more yield 0), and
// mask bits at or above len(rb) are never set, so neither edge needs a clamp
// to |b|.
//
// Whether a[i] finds a partner is data, not control flow (intersectSorted's
// reasoning): every step stores its candidate's position at order[matches]
// and matches advances by a flag. A step without one stores 64 in a slot the
// next match overwrites — or, all 64 runes of b taken, in slot 64, never read.
func jaroSingle(ra, rb []rune, window int, peq *[asciiTableSize]uint64, over map[rune]uint64) (matches, trans int) {
	var matchedB uint64
	var order [65]uint8 // order[k] is the position in b the k-th match took
	inside := uint64(1)<<uint(window+1) - 1
	var below uint64
	for i, c := range ra {
		below = below<<1 | uint64(B2i(i > window))
		var cand uint64
		if c < asciiTableSize {
			cand = peq[c]
		} else if over != nil {
			cand = over[c]
		}
		cand &= inside &^ (below | matchedB)
		matchedB |= cand & -cand
		order[matches] = uint8(bits.TrailingZeros64(cand))
		matches += B2i(cand != 0)
		inside = inside<<1 | 1
	}
	// The k-th matched rune of a is rb[order[k]]; its counterpart is the
	// k-th matched position of b in ascending order.
	for k := 0; matchedB != 0; k, matchedB = k+1, matchedB&(matchedB-1) {
		j := bits.TrailingZeros64(matchedB)
		trans += B2i(rb[order[k]] != rb[j])
	}
	return matches, trans
}

// JaroWinklerTile writes JaroWinklerProfiles(as[t], b) to dst[t*stride] for
// every t — the same bits — with b's masks built once for the whole tile
// instead of once per pair (DESIGN.md "Pair kernels"). A b of no runes or of
// more than 64 is scored pair by pair.
func JaroWinklerTile(as []*Profile, b *Profile, dst []float64, stride int, s *Scratch) {
	if s == nil {
		s = new(Scratch)
	}
	rb := b.Runes
	if len(rb) == 0 || len(rb) > 64 {
		for t, a := range as {
			dst[t*stride] = jaroWinklerRunes(a.Runes, rb, s)
		}
		return
	}
	peq, over := s.buildMasks(rb)
	for t, a := range as {
		dst[t*stride] = winkler(jaroAgainst(a.Runes, rb, peq, over), a.Runes, rb)
	}
	s.wipeMasks(rb, over)
}

// jaroBlocks is jaroSingle for b longer than 64 runes: mask rows of
// ⌈|b|/64⌉ words, and matched-position bitsets for both sides carved from
// the same arena. Per rune of a only the words its window overlaps are
// read, lowest first, so the first non-zero candidate word holds the
// lowest candidate position.
func jaroBlocks(ra, rb []rune, window int, s *Scratch) (matches, trans int) {
	la, lb := len(ra), len(rb)
	w := (lb + 63) / 64
	peq, over := s.buildRows(rb, w)
	matchedA, matchedB := s.carveRow((la+63)/64), s.carveRow(w)
	arena := s.peqArena
	for i, c := range ra {
		var off uint64
		if c < asciiTableSize {
			off = peq[c]
		} else if over != nil {
			off = over[c]
		}
		if off == 0 {
			continue
		}
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > lb {
			hi = lb
		}
		if lo >= hi {
			break // windows only move right: the rest of a is out of reach
		}
		row := arena[off : off+uint64(w)]
		first, last := lo>>6, (hi-1)>>6
		for k := first; k <= last; k++ {
			cand := row[k] &^ matchedB[k]
			if k == first {
				cand &^= uint64(1)<<uint(lo&63) - 1
			}
			if k == last && hi&63 != 0 {
				cand &= uint64(1)<<uint(hi&63) - 1
			}
			if cand != 0 {
				matchedB[k] |= cand & -cand
				matchedA[i>>6] |= uint64(1) << uint(i&63)
				matches++
				break
			}
		}
	}
	s.wipeMasks(rb, over)
	// Pair the k-th set bit of matchedA with the k-th set bit of matchedB.
	kb, wordB := 0, matchedB[0]
	for ka, wordA := range matchedA {
		for ; wordA != 0; wordA &= wordA - 1 {
			for wordB == 0 {
				kb++
				wordB = matchedB[kb]
			}
			i := ka<<6 + bits.TrailingZeros64(wordA)
			j := kb<<6 + bits.TrailingZeros64(wordB)
			if ra[i] != rb[j] {
				trans++
			}
			wordB &= wordB - 1
		}
	}
	return matches, trans
}

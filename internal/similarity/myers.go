package similarity

// Myers' bit-parallel edit distance (Myers 1999, in Hyyrö's formulation):
// the DP matrix's vertical deltas are encoded as bit vectors VP/VN, and one
// column of the classic O(m·n) dynamic program collapses into a constant
// number of word operations. For patterns up to 64 runes a single machine
// word carries the whole column (myersSingle); longer patterns split into
// ⌈m/64⌉ blocks chained per text character through a horizontal carry
// (myersBlocks). Both compute the exact unit-cost Levenshtein distance —
// the same integer as the retained two-row and full-matrix references —
// so every similarity derived from it is bit-identical by construction.
//
// levenshteinRunes makes the shorter trimmed side the pattern, so block count
// is minimal; EditSimColumn keeps one pattern for a column of texts instead.

// myersSingle computes Levenshtein distance for patterns of 1..64 runes.
// The pattern-match bitmasks live in the scratch's ASCII table (the common
// case after normalization) with a map spillover for wider runes; both are
// wiped after the run, so steady state is zero-alloc.
func myersSingle(pattern, text []rune, s *Scratch) int {
	m := len(pattern)
	peq, over := s.buildMasks(pattern)
	vp, vn, score, top := ^uint64(0), uint64(0), m, uint(m-1)
	for _, c := range text {
		var d int
		vp, vn, d = myersStep(maskOf(peq, over, c), vp, vn, top)
		score += d
	}
	s.wipeMasks(pattern, over)
	return score
}

// maskOf reads rune c's entry of a table buildMasks filled.
func maskOf(peq *[asciiTableSize]uint64, over map[rune]uint64, c rune) uint64 {
	if c < asciiTableSize {
		return peq[c]
	}
	return over[c] // a nil map reads as zero
}

// myersStep advances one column of the single-word DP by the text character
// whose pattern mask is eq, and returns the new vertical deltas and the
// change of the bottom cell (bit top = m−1 of the horizontal deltas): two
// bits subtracted, not a branch, for intersectSorted's reason.
func myersStep(eq, vp, vn uint64, top uint) (uint64, uint64, int) {
	d0 := (((eq & vp) + vp) ^ vp) | eq | vn
	hp := vn | ^(d0 | vp)
	hn := vp & d0
	d := int(hp>>(top&63)&1) - int(hn>>(top&63)&1)
	hp = hp<<1 | 1
	hn <<= 1
	return hn | ^(d0 | hp), hp & d0, d
}

// EditSimColumn writes EditSimProfiles(a, bs[k]) to dst[k*stride] — the same
// bits — for every k in pos; a must have 1..64 runes. a is the pattern
// whatever the lengths, its masks built once, with no trim: the distance is
// the same integer either way round. Two texts advance per iteration, each
// with its own vp/vn/score, the second chain filling the slots the first's
// dependent steps leave idle (DESIGN.md "Column kernels").
func EditSimColumn(a *Profile, bs []*Profile, pos []int32, dst []float64, stride int, s *Scratch) {
	if s == nil {
		s = new(Scratch)
	}
	m, n := len(a.Runes), len(pos)
	peq, over := s.buildMasks(a.Runes)
	top := uint(m - 1)
	for j := 0; j < n; j += 2 {
		// t0 is the shorter of the two texts; an odd column's last is alone.
		k0, k1, t0 := -1, int(pos[j]), []rune(nil)
		if j+1 < n {
			k0 = int(pos[j+1])
			t0 = bs[k0].Runes
		}
		t1 := bs[k1].Runes
		if len(t0) > len(t1) {
			k0, k1, t0, t1 = k1, k0, t1, t0
		}
		vp0, vn0, s0, vp1, vn1, s1 := ^uint64(0), uint64(0), m, ^uint64(0), uint64(0), m
		var d int
		for i, c := range t0 {
			vp0, vn0, d = myersStep(maskOf(peq, over, c), vp0, vn0, top)
			s0 += d
			vp1, vn1, d = myersStep(maskOf(peq, over, t1[i]), vp1, vn1, top)
			s1 += d
		}
		for _, c := range t1[len(t0):] {
			vp1, vn1, d = myersStep(maskOf(peq, over, c), vp1, vn1, top)
			s1 += d
		}
		if k0 >= 0 {
			dst[k0*stride] = 1 - float64(s0)/float64(max(m, len(t0)))
		}
		dst[k1*stride] = 1 - float64(s1)/float64(max(m, len(t1)))
	}
	s.wipeMasks(a.Runes, over)
}

// myersBlocks is the multi-block variant for patterns longer than 64 runes
// (Hyyrö's block-based algorithm): per text character the blocks are
// scanned bottom-up, each passing its horizontal boundary delta (-1, 0, +1)
// to the next, and the top block's delta adjusts the running score. The
// bottom block receives +1 — the first DP row grows by one per text
// character — which reduces to the single-block "HP<<1 | 1" when w == 1.
func myersBlocks(pattern, text []rune, s *Scratch) int {
	m := len(pattern)
	w := (m + 63) / 64
	peq, over := s.buildRows(pattern, w)
	vp, vn := s.carveRow(w), s.carveRow(w)
	arena := s.peqArena
	for j := range vp {
		vp[j] = ^uint64(0)
	}

	score := m
	last := w - 1
	lastTop := uint64(1) << uint((m-1)&63)
	for _, c := range text {
		var off uint64
		if c < asciiTableSize {
			off = peq[c]
		} else if over != nil {
			off = over[c]
		}
		row := arena[off : off+uint64(w)]
		hin := 1
		for j := 0; j <= last; j++ {
			x := row[j]
			if hin < 0 {
				x |= 1
			}
			pv, nv := vp[j], vn[j]
			d0 := (((x & pv) + pv) ^ pv) | x | nv
			hp := nv | ^(d0 | pv)
			hn := pv & d0
			top := uint64(1) << 63
			if j == last {
				top = lastTop
			}
			hout := 0
			if hp&top != 0 {
				hout = 1
			} else if hn&top != 0 {
				hout = -1
			}
			hp <<= 1
			hn <<= 1
			if hin > 0 {
				hp |= 1
			} else if hin < 0 {
				hn |= 1
			}
			vp[j] = hn | ^(d0 | hp)
			vn[j] = hp & d0
			hin = hout
		}
		score += hin
	}
	s.wipeMasks(pattern, over)
	return score
}

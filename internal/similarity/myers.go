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
// The pattern is always the shorter trimmed side, chosen by the caller, so
// block count (and the per-character work) is minimal.

// myersSingle computes Levenshtein distance for patterns of 1..64 runes.
// The pattern-match bitmasks live in the scratch's ASCII table (the common
// case after normalization) with a map spillover for wider runes; both are
// wiped after the run, so steady state is zero-alloc.
func myersSingle(pattern, text []rune, s *Scratch) int {
	m := len(pattern)
	peq, over := s.buildMasks(pattern)

	vp := ^uint64(0)
	vn := uint64(0)
	score := m
	top := uint64(1) << uint(m-1)
	for _, c := range text {
		var eq uint64
		if c < asciiTableSize {
			eq = peq[c]
		} else if over != nil {
			eq = over[c]
		}
		d0 := (((eq & vp) + vp) ^ vp) | eq | vn
		hp := vn | ^(d0 | vp)
		hn := vp & d0
		if hp&top != 0 {
			score++
		} else if hn&top != 0 {
			score--
		}
		hp = hp<<1 | 1
		hn = hn << 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0
	}
	s.wipeMasks(pattern, over)
	return score
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

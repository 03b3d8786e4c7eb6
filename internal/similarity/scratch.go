package similarity

// Scratch holds the reusable working buffers of the bit-parallel measures:
// the position-mask tables Myers edit distance and Jaro share. A
// pair scan evaluates millions of similarity calls; without scratch every
// call allocates its working set anew, and that allocation — not the
// arithmetic — dominates the profile. One Scratch serves one goroutine;
// callers fanning out keep one per worker. A nil *Scratch is valid
// everywhere and falls back to per-call allocation.
type Scratch struct {
	// Position masks of the indexed side (Myers' pattern, Jaro's b): a
	// direct-indexed ASCII table plus a spillover map for runes >= 128.
	// Single-word kernels store the mask itself (bit i set where the rune
	// occurs at position i); multi-word kernels store the arena offset of
	// the rune's w-word mask row. Both wipe exactly the entries they set
	// before returning, so the tables are always clean on entry.
	peqASCII [asciiTableSize]uint64
	peqOver  map[rune]uint64

	// peqArena backs the multi-word kernels: the mask rows, then the
	// per-call state rows (Myers' VP/VN, Jaro's matched bits).
	peqArena []uint64

	// Monge-Elkan (TokenPairs.MongeElkan, MongeElkanColumn): a's distinct
	// tokens, a's tokens as indexes into them, the token-pair slab, the best
	// score of each b-side token over a's tokens, and a position's best
	// score of each of a's tokens.
	meXs                []uint32
	meXa                []int32
	meSlab, meG, meBest []float64
}

// grow reslices *buf to n, reallocating — to at least twice its capacity —
// only when it is short: a warm scratch grows nothing.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
}

// asciiTableSize bounds the direct-indexed mask table; runes at or above it
// go through the spillover map.
const asciiTableSize = 128

// NewScratch returns an empty scratch; buffers grow on demand and are
// retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// overflow returns the (clean, retained) spillover map.
func (s *Scratch) overflow() map[rune]uint64 {
	if s.peqOver == nil {
		s.peqOver = make(map[rune]uint64, 4)
	}
	return s.peqOver
}

// buildMasks sets bit i of the table entry of side[i] for a side of at most
// 64 runes. The returned map is nil when side is pure ASCII, so lookups of
// wider runes can skip it.
func (s *Scratch) buildMasks(side []rune) (*[asciiTableSize]uint64, map[rune]uint64) {
	var over map[rune]uint64
	for i, c := range side {
		bit := uint64(1) << uint(i)
		if c < asciiTableSize {
			s.peqASCII[c] |= bit
			continue
		}
		if over == nil {
			over = s.overflow()
		}
		over[c] |= bit
	}
	return &s.peqASCII, over
}

// buildRows is buildMasks for sides longer than 64 runes: each distinct
// rune gets a w-word mask row in the arena and its table entry holds the
// row's offset. Offset 0 is an all-zero row, so a clean table entry — a
// rune absent from side — reads as "occurs nowhere" without a branch. The
// arena may move while rows are carved: read s.peqArena only after the
// last carveRow of a call.
func (s *Scratch) buildRows(side []rune, w int) (*[asciiTableSize]uint64, map[rune]uint64) {
	s.peqArena = s.peqArena[:0]
	s.carveRow(w)
	var over map[rune]uint64
	for i, c := range side {
		var off uint64
		if c < asciiTableSize {
			if off = s.peqASCII[c]; off == 0 {
				s.carveRow(w)
				off = uint64(len(s.peqArena) - w)
				s.peqASCII[c] = off
			}
		} else {
			if over == nil {
				over = s.overflow()
			}
			if off = over[c]; off == 0 {
				s.carveRow(w)
				off = uint64(len(s.peqArena) - w)
				over[c] = off
			}
		}
		s.peqArena[int(off)+i>>6] |= uint64(1) << uint(i&63)
	}
	return &s.peqASCII, over
}

// wipeMasks clears the table entries buildMasks / buildRows set for side.
func (s *Scratch) wipeMasks(side []rune, over map[rune]uint64) {
	for _, c := range side {
		if c < asciiTableSize {
			s.peqASCII[c] = 0
		}
	}
	if over != nil {
		clear(over)
	}
}

// carveRow appends a zeroed w-word row to the arena and returns it. The
// arena keeps its capacity across calls (the row is capped, not the
// arena), so a warm scratch carves without allocating.
func (s *Scratch) carveRow(w int) []uint64 {
	n := len(s.peqArena)
	if cap(s.peqArena)-n < w {
		next := make([]uint64, n, cap(s.peqArena)*2+16*w)
		copy(next, s.peqArena)
		s.peqArena = next
	}
	s.peqArena = s.peqArena[:n+w]
	row := s.peqArena[n : n+w : n+w]
	clear(row)
	return row
}

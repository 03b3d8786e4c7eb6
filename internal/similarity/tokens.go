package similarity

import (
	"math"
	"slices"
	"sync/atomic"
)

// Cell is one slot of a write-once table of similarity scores. A score is a
// pure function of its two operands, so every goroutine that finds the cell
// empty computes the same bits and stores them; a load therefore returns
// either "empty" or the one value the cell can ever hold, and the table's
// contents never depend on scheduling. The zero Cell is empty. The stored
// word is Float64bits+1, so the all-ones NaN pattern — which no measure
// here produces — would wrap to "empty" and merely be recomputed.
type Cell struct{ w atomic.Uint64 }

// Load returns the stored score, or false while the cell is empty.
func (c *Cell) Load() (float64, bool) {
	w := c.w.Load()
	return math.Float64frombits(w - 1), w != 0
}

// Store records the cell's score.
func (c *Cell) Store(v float64) { c.w.Store(math.Float64bits(v) + 1) }

// TokenDict is the token dictionary of one side of a Monge-Elkan column:
// each distinct word token's runes, decoded once, under an id that profiles
// carry instead of their own copy of the runes (Profile.TokenIDs).
type TokenDict struct {
	runes [][]rune // by token id
}

// Len returns the number of distinct tokens.
func (d *TokenDict) Len() int { return len(d.runes) }

// TokenPairs scores Monge-Elkan between profiles of two token dictionaries
// (requires FieldTokenIDs, the a-side profiles numbered by the first
// dictionary and the b-side ones by the second). The inner Jaro-Winkler is
// a function of two tokens, so with a table it runs once per distinct token
// pair instead of once per occurrence. Jaro-Winkler is symmetric in its
// arguments, bit for bit (jaro.go, DESIGN.md "Why the masks sit on b"), so
// one cell serves both directions: JW(a[x], b[y]) is JW(b[y], a[x]). A
// TokenPairs is safe for concurrent use.
type TokenPairs struct {
	a, b *TokenDict
	// jw[x*b.Len()+y] holds JW(a[x], b[y]); nil when the column is not
	// worth a table, and every score is computed.
	jw []Cell
}

// NewTokenPairs binds the two dictionaries; table says whether to memoise
// the token-pair scores (|a|·|b| cells, filled on first use).
func NewTokenPairs(a, b *TokenDict, table bool) *TokenPairs {
	t := &TokenPairs{a: a, b: b}
	if table {
		t.jw = make([]Cell, a.Len()*b.Len())
	}
	return t
}

// cell is the table's cell of JW(a[x], b[y]); nil without a table.
func (t *TokenPairs) cell(x, y uint32) *Cell {
	if t.jw == nil {
		return nil
	}
	return &t.jw[int(x)*len(t.b.runes)+int(y)]
}

// jaroWinkler returns JW(a[x], b[y]): the table's cell if it is filled,
// else the kernel's score, stored.
func (t *TokenPairs) jaroWinkler(x, y uint32, s *Scratch) float64 {
	cell := t.cell(x, y)
	if cell != nil {
		if v, ok := cell.Load(); ok {
			return v
		}
	}
	v := jaroWinklerRunes(t.a.runes[x], t.b.runes[y], s)
	if cell != nil {
		cell.Store(v)
	}
	return v
}

// MongeElkan is the profile fast path of MongeElkan: for each token of a the
// best Jaro-Winkler among the tokens of b, averaged, and the same from b's
// side, in the string measure's evaluation order. Each of the |a|·|b| token
// pairs is scored once: JW(y, x) is JW(x, y), so one pass over a's tokens
// keeps both a's row maxima, summed in a's order, and b's column maxima in
// s, summed afterwards in b's order. The builtin max stands for the string
// measure's `if v > best` loop: Jaro-Winkler is in [0, 1], never NaN and
// never −0, and best starts at +0, so the two keep the same bits whatever
// order the maximum is taken in (TestMaxIsTheGreaterLoop).
func (t *TokenPairs) MongeElkan(a, b *Profile, s *Scratch) float64 {
	ta, tb := a.TokenIDs, b.TokenIDs
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	if s == nil {
		s = new(Scratch)
	}
	g := grow(&s.meG, len(tb))
	clear(g)
	sumA := 0.0
	for _, x := range ta {
		best := 0.0
		for j, y := range tb {
			v := t.jaroWinkler(x, y, s)
			best = max(best, v)
			g[j] = max(g[j], v)
		}
		sumA += best
	}
	sumB := 0.0
	for _, v := range g {
		sumB += v
	}
	return (sumA/float64(len(ta)) + sumB/float64(len(tb))) / 2
}

// TokenRun is the b side of a Monge-Elkan column: the distinct tokens of a
// list of b-side profiles, in first-seen order, and each profile's tokens,
// repeats and order kept, as indexes into them.
type TokenRun struct {
	ys  []uint32 // the distinct tokens, by b-dictionary id
	off []int32  // profile k's tokens are loc[off[k]:off[k+1]]
	loc []int32  // indexes into ys
}

// NewTokenRun collects the tokens of the b-side profiles ps[rows[k]].
func (t *TokenPairs) NewTokenRun(ps []*Profile, rows []int32) *TokenRun {
	local := make([]int32, t.b.Len()) // 1 + the token's index in ys; 0 for a token the rows lack
	ny, n := int32(0), 0
	for _, b := range rows {
		for _, y := range ps[b].TokenIDs {
			if local[y] == 0 {
				ny++
				local[y] = ny
			}
		}
		n += len(ps[b].TokenIDs)
	}
	r := &TokenRun{ys: make([]uint32, ny), off: make([]int32, len(rows)+1), loc: make([]int32, 0, n)}
	for y, l := range local {
		if l > 0 {
			r.ys[l-1] = uint32(y)
		}
	}
	for k, b := range rows {
		for _, y := range ps[b].TokenIDs {
			r.loc = append(r.loc, local[y]-1)
		}
		r.off[k+1] = int32(len(r.loc))
	}
	return r
}

// MongeElkanColumn writes t.MongeElkan(a, ps[rows[k]]) — ps and rows being
// what the run was collected from — to dst[k*stride] for every k in pos, the
// same bits, and reports true. It reports false, writing nothing, when a has
// no tokens or the pair path reads fewer Jaro-Winkler scores.
//
// The column scores a's distinct tokens xs against the run's ys once: a slab
// of JW(x, y) for every pair — each read from the token-pair table where it
// has the cell, else computed B-major (jwAgainst: a run token's masks built
// once for all of xs) — and g[y], the best slab entry over xs, which is the
// best JW(y, x) by symmetry. That is |xs|·|ys| scores against the pair
// path's |a|·Σ|b| over pos. A position then sums, over a's tokens in order,
// the best slab entry among its own tokens, and over its tokens in order g:
// the pair path's two sums term by term, since a max over values in [0, 1]
// does not depend on the order it is taken in, and the same divisions.
func (t *TokenPairs) MongeElkanColumn(a *Profile, run *TokenRun, pos []int32, dst []float64, stride int, s *Scratch) bool {
	ta := a.TokenIDs
	if len(ta) == 0 {
		return false
	}
	if s == nil {
		s = new(Scratch)
	}
	if s.distinctTokens(ta)*len(run.ys) >= len(ta)*run.tokensAt(pos) {
		return false
	}
	t.slabColumn(len(ta), run, pos, dst, stride, s)
	return true
}

// distinctTokens leaves the distinct tokens of ta in s.meXs, in first-seen
// order, and each token of ta as an index into them in s.meXa; it returns how
// many are distinct.
func (s *Scratch) distinctTokens(ta []uint32) int {
	xs, xa := s.meXs[:0], s.meXa[:0]
	for _, x := range ta {
		i := slices.Index(xs, x)
		if i < 0 {
			i = len(xs)
			xs = append(xs, x)
		}
		xa = append(xa, int32(i))
	}
	s.meXs, s.meXa = xs, xa
	return len(xs)
}

// tokensAt returns how many tokens the positions in pos hold, repeats
// counted.
func (r *TokenRun) tokensAt(pos []int32) int {
	if len(pos) == len(r.off)-1 {
		return len(r.loc)
	}
	n := 0
	for _, k := range pos {
		n += int(r.off[k+1] - r.off[k])
	}
	return n
}

// slabColumn is MongeElkanColumn past its cost rule, for an a of na tokens
// that distinctTokens has left in s.
func (t *TokenPairs) slabColumn(na int, run *TokenRun, pos []int32, dst []float64, stride int, s *Scratch) {
	xs, xa := s.meXs, s.meXa
	nx, ny := len(xs), len(run.ys)
	slab, g := grow(&s.meSlab, nx*ny), grow(&s.meG, ny)
	for yi, y := range run.ys {
		row := slab[yi*nx : yi*nx+nx]
		t.jwAgainst(xs, y, row, s)
		best := 0.0
		for _, v := range row {
			best = max(best, v)
		}
		g[yi] = best
	}
	best := grow(&s.meBest, nx)
	for _, k := range pos {
		tb := run.loc[run.off[k]:run.off[k+1]]
		if len(tb) == 0 {
			dst[int(k)*stride] = 0
			continue
		}
		clear(best)
		sumB := 0.0
		for _, y := range tb {
			for xi, v := range slab[int(y)*nx : int(y)*nx+nx] {
				best[xi] = max(best[xi], v)
			}
			sumB += g[y]
		}
		sumA := 0.0
		for _, xi := range xa {
			sumA += best[xi]
		}
		dst[int(k)*stride] = (sumA/float64(na) + sumB/float64(len(tb))) / 2
	}
}

// jwAgainst writes JW(a[xs[i]], b[y]) to out[i]: the table's cell if it is
// filled, else computed against y's masks, built on the first miss and kept
// for the rest, and stored.
func (t *TokenPairs) jwAgainst(xs []uint32, y uint32, out []float64, s *Scratch) {
	rb := t.b.runes[y]
	var peq *[asciiTableSize]uint64
	var over map[rune]uint64
	for i, x := range xs {
		cell := t.cell(x, y)
		if cell != nil {
			if v, ok := cell.Load(); ok {
				out[i] = v
				continue
			}
		}
		ra := t.a.runes[x]
		var v float64
		if len(rb) == 0 || len(rb) > 64 {
			v = jaroWinklerRunes(ra, rb, s)
		} else {
			if peq == nil {
				peq, over = s.buildMasks(rb)
			}
			v = winkler(jaroAgainst(ra, rb, peq, over), ra, rb)
		}
		if cell != nil {
			cell.Store(v)
		}
		out[i] = v
	}
	if peq != nil {
		s.wipeMasks(rb, over)
	}
}

// Cells returns the size of the token-pair table (0 without one).
func (t *TokenPairs) Cells() int { return len(t.jw) }

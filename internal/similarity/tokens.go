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
// a function of two tokens, so with a table it runs once per distinct
// directed token pair instead of once per occurrence. Both directions have
// their own cell: Jaro's first-fit matcher is not symmetric in its
// arguments (jaro.go), and nothing proves its score is, so JW(x, y) may not
// stand in for JW(y, x). A TokenPairs is safe for concurrent use.
type TokenPairs struct {
	a, b *TokenDict
	// jw[2*(x*b.Len()+y)] holds JW(a[x], b[y]), the next cell JW(b[y], a[x]);
	// nil when the column is not worth a table, and every score is computed.
	jw []Cell
}

// NewTokenPairs binds the two dictionaries; table says whether to memoise
// the token-pair scores (2·|a|·|b| cells, filled on first use).
func NewTokenPairs(a, b *TokenDict, table bool) *TokenPairs {
	t := &TokenPairs{a: a, b: b}
	if table {
		t.jw = make([]Cell, 2*a.Len()*b.Len())
	}
	return t
}

// cell is the table's cell of JW(a[x], b[y]), or of JW(b[y], a[x]) when
// back is 1; nil without a table.
func (t *TokenPairs) cell(x, y uint32, back int) *Cell {
	if t.jw == nil {
		return nil
	}
	return &t.jw[2*(int(x)*len(t.b.runes)+int(y))+back]
}

// jaroWinkler returns JW(a[x], b[y]), or JW(b[y], a[x]) when back is 1:
// the table's cell if it is filled, else the kernel's score, stored.
func (t *TokenPairs) jaroWinkler(x, y uint32, back int, s *Scratch) float64 {
	cell := t.cell(x, y, back)
	if cell != nil {
		if v, ok := cell.Load(); ok {
			return v
		}
	}
	ra, rb := t.a.runes[x], t.b.runes[y]
	if back != 0 {
		ra, rb = rb, ra
	}
	v := jaroWinklerRunes(ra, rb, s)
	if cell != nil {
		cell.Store(v)
	}
	return v
}

// MongeElkan is the profile fast path of MongeElkan: for each token of a the
// best Jaro-Winkler among the tokens of b, averaged, and the same from b's
// side, in the string measure's evaluation order. The builtin max stands for
// the string measure's `if v > best` loop: Jaro-Winkler is in [0, 1], never
// NaN and never −0, and best starts at +0, so the two keep the same bits
// (TestMaxIsTheGreaterLoop).
func (t *TokenPairs) MongeElkan(a, b *Profile, s *Scratch) float64 {
	ta, tb := a.TokenIDs, b.TokenIDs
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sumA := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			best = max(best, t.jaroWinkler(x, y, 0, s))
		}
		sumA += best
	}
	sumB := 0.0
	for _, y := range tb {
		best := 0.0
		for _, x := range ta {
			best = max(best, t.jaroWinkler(x, y, 1, s))
		}
		sumB += best
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
// of JW(x, y) for every pair, and g[y], the best JW(y, x) over xs — each read
// from the token-pair table where it has the cell, else computed B-major
// (jwAgainst: one side's masks built once for all of the other's tokens).
// That is 2·|xs|·|ys| scores against the pair path's 2·|a|·Σ|b| over pos.
// A position then sums, over a's tokens in order, the best slab entry among
// its own tokens, and over its tokens in order g: the pair path's two sums
// term by term, since a max over values in [0, 1] does not depend on the
// order it is taken in, and the same divisions.
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
	slab, g, col := grow(&s.meSlab, nx*ny), grow(&s.meG, ny), grow(&s.meCol, ny)
	for yi, y := range run.ys {
		t.jwAgainst(xs, y, 0, slab[yi*nx:yi*nx+nx], s)
	}
	clear(g)
	for _, x := range xs {
		t.jwAgainst(run.ys, x, 1, col, s)
		for yi, v := range col {
			g[yi] = max(g[yi], v)
		}
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

// jwAgainst writes to out[i] the score of the i-th token of us against the
// token w — with back 0, JW(a[us[i]], b[w]); with back 1, JW(b[us[i]], a[w])
// — each the table's cell if it is filled, else computed against w's masks,
// built on the first miss and kept for the rest, and stored.
func (t *TokenPairs) jwAgainst(us []uint32, w uint32, back int, out []float64, s *Scratch) {
	du, dw := t.a, t.b
	if back != 0 {
		du, dw = t.b, t.a
	}
	rw := dw.runes[w]
	var peq *[asciiTableSize]uint64
	var over map[rune]uint64
	for i, u := range us {
		x, y := u, w
		if back != 0 {
			x, y = w, u
		}
		cell := t.cell(x, y, back)
		if cell != nil {
			if v, ok := cell.Load(); ok {
				out[i] = v
				continue
			}
		}
		ru := du.runes[u]
		var v float64
		if len(rw) == 0 || len(rw) > 64 {
			v = jaroWinklerRunes(ru, rw, s)
		} else {
			if peq == nil {
				peq, over = s.buildMasks(rw)
			}
			v = winkler(jaroAgainst(ru, rw, peq, over), ru, rw)
		}
		if cell != nil {
			cell.Store(v)
		}
		out[i] = v
	}
	if peq != nil {
		s.wipeMasks(rw, over)
	}
}

// Cells returns the size of the token-pair table (0 without one).
func (t *TokenPairs) Cells() int { return len(t.jw) }

package similarity

import (
	"math"
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

// jaroWinkler returns JW(a[x], b[y]), or JW(b[y], a[x]) when back is 1:
// the table's cell if it is filled, else the kernel's score, stored.
func (t *TokenPairs) jaroWinkler(x, y uint32, back int, s *Scratch) float64 {
	var cell *Cell
	if t.jw != nil {
		cell = &t.jw[2*(int(x)*len(t.b.runes)+int(y))+back]
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
// side, in the string measure's evaluation order.
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
			if v := t.jaroWinkler(x, y, 0, s); v > best {
				best = v
			}
		}
		sumA += best
	}
	sumB := 0.0
	for _, y := range tb {
		best := 0.0
		for _, x := range ta {
			if v := t.jaroWinkler(x, y, 1, s); v > best {
				best = v
			}
		}
		sumB += best
	}
	return (sumA/float64(len(ta)) + sumB/float64(len(tb))) / 2
}

// Cells returns the size of the token-pair table (0 without one).
func (t *TokenPairs) Cells() int { return len(t.jw) }

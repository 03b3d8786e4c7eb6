package feature

import (
	"slices"
	"sync"

	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
)

// sparseList: a set measure scores a position list under 1/sparseList of
// its run pair by pair, the run's token views neither read nor built — a
// walk visits every position's postings whatever the list (DESIGN.md
// "Column kernels").
const sparseList = 16

// The view of a profile a column kernel reads: for a set measure, which of
// the sorted code lists it intersects; for edit, the runes; for Monge-Elkan,
// the token ids. Every other measure has noView, and no column kernel over
// the run's views.
const (
	noView int8 = iota - 1
	viewWords
	viewGrams
	viewRunes
	viewTokens
	numViews
)

func viewOf(kind string) int8 {
	switch kind {
	case "jaccard_w", "overlap_w", "tfidf_cos":
		return viewWords
	case "jaccard_3g":
		return viewGrams
	case "edit":
		return viewRunes
	case "monge_elkan":
		return viewTokens
	}
	return noView
}

// boundOf is the bound Run.BoundAt gives a measure, nil for none.
func boundOf(kind string) func(a, b *similarity.Bag) float64 {
	switch kind {
	case "edit":
		return similarity.EditSimBound
	case "jaro_winkler":
		return similarity.JaroWinklerBound
	}
	return nil
}

func viewKeys(p *similarity.Profile, view int8) []uint64 {
	if view == viewGrams {
		return p.Grams
	}
	return p.WordIDs
}

// Run is a list of table B rows that rows of table A are scored against one
// after the other — the b side of a cross product, a shard's rows — with the
// list's views, one per (column, view), each built by the first Column or
// ColumnAt call that needs it. Safe for concurrent use, a RunScratch per
// goroutine.
type Run struct {
	ex    *Extractor
	bs    []int32
	all   []int32   // 0..len(bs)-1: the position list that stands for the whole run
	view  []int8    // by feature: the view its column kernel reads, noView for pair by pair
	views []runView // [attrIdx*numViews + view]
	// tiled[i]: feature i is an untabled jaro_winkler, which Vectors scores
	// a tile of rows of A at a time.
	tiled []bool
}

// runView is one column's view over the run. Its postings list positions,
// not rows: position k stands for row bs[k].
type runView struct {
	once sync.Once
	post simindex.Postings
	// size[k] is the size of position k's set (its rune count, for the rune
	// view), -1 where its value is missing: a row of A with a value scores
	// Missing against such a position.
	size []int32
	// The rune view has no postings: it is the positions' profiles, gathered.
	profs []*similarity.Profile
	// The token view is the positions' token ids over the run's distinct
	// tokens.
	tokens *similarity.TokenRun
	// The word view of a TF/IDF column also has each postings entry's term
	// frequency, parallel to post.Rows (kept an integer: half the bytes, the
	// walk's conversion is exact), and each position's squared norm.
	tf   []int32
	norm []float64
}

// NewRun binds the list bs of table B rows (any order, repeats allowed) to
// the extractor; nil stands for all of table B in row order. bs is not
// copied and must not change.
func (e *Extractor) NewRun(bs []int32) *Run {
	all := make([]int32, len(bs))
	if bs == nil {
		all = make([]int32, e.B.Len())
		bs = all
	}
	for k := range all {
		all[k] = int32(k)
	}
	r := &Run{ex: e, bs: bs, all: all, view: make([]int8, len(e.features)),
		views: make([]runView, len(e.cols)*int(numViews)), tiled: make([]bool, len(e.features))}
	for i, f := range e.features {
		r.view[i] = noView
		if e.cols[f.AttrIdx].cells == nil {
			r.view[i] = viewOf(f.Kind)
			r.tiled[i] = f.Kind == "jaro_winkler"
		}
	}
	return r
}

// Rows returns the run's table B rows (read-only).
func (r *Run) Rows() []int32 { return r.bs }

// Positions returns 0..len(Rows())-1: the whole run as ColumnAt's list.
func (r *Run) Positions() []int32 { return r.all }

// HasColumn reports whether feature i has a column kernel over the run's
// views: a set measure, edit or Monge-Elkan, no value-pair table (a tabled
// feature's column reads its cells).
func (r *Run) HasColumn(i int) bool { return r.view[i] != noView }

// build gathers the rune view's profiles, collects the token view's tokens,
// or inverts a set view over the run's positions.
func (v *runView) build(c *column, view int8, bs []int32) {
	v.size = make([]int32, len(bs))
	switch view {
	case viewRunes:
		v.profs = make([]*similarity.Profile, len(bs))
		for k, b := range bs {
			v.profs[k] = c.profB[b]
			v.size[k] = int32(len(v.profs[k].Runes))
			if v.size[k] == 0 { // no runes: the normalized value is empty
				v.size[k] = -1
			}
		}
		return
	case viewTokens:
		for k, b := range bs {
			v.size[k] = int32(len(c.profB[b].TokenIDs))
			if c.profB[b].Norm == "" {
				v.size[k] = -1
			}
		}
		v.tokens = c.tokens.NewTokenRun(c.profB, bs)
		return
	}
	weighed := view == viewWords && c.profB[bs[0]].TFIDF != nil
	if weighed {
		v.norm = make([]float64, len(bs))
	}
	entries := 0
	for k, b := range bs {
		p := c.profB[b]
		if p.Norm == "" {
			v.size[k] = -1
			continue
		}
		v.size[k] = int32(len(viewKeys(p, view)))
		entries += int(v.size[k])
		if weighed {
			v.norm[k] = p.TFIDF.Norm
		}
	}
	set := func(k int) []uint64 {
		if v.size[k] <= 0 {
			return nil
		}
		return viewKeys(c.profB[bs[k]], view)
	}
	var visit func(entry, k, i int)
	if weighed {
		v.tf = make([]int32, entries)
		visit = func(entry, k, i int) { v.tf[entry] = int32(c.profB[bs[k]].TFIDF.TF[i]) }
	}
	v.post = simindex.BuildPostings(len(bs), set, visit)
}

// RunScratch is one goroutine's working state over the Runs it scores
// against, one after the other: per position the intersection count and
// TF/IDF dot product of the last row of A walked, and the nt positions that
// walk touched — kept until the next walk, so the measures that share a view
// (jaccard_w, overlap_w, tfidf_cos) share one walk per row. The zero value
// is ready; the arrays grow to the longest run met (a prober alternates).
type RunScratch struct {
	// Pair is the scratch the character measures get; nil makes them
	// allocate per call.
	Pair *similarity.Scratch

	cnt            []int32
	dot            []float64
	touched, slots []int32
	nt             int
	view           *runView // whose walk, of which row's profile, the above
	a              *similarity.Profile

	tileA []*similarity.Profile // the profiles of a tile's rows of A (tile)
}

// Column writes feature i of (a, Rows()[k]) to dst[k*stride] for every
// position k, each value math.Float64bits-identical to ComputeScratch's.
func (r *Run) Column(i int, a int32, dst []float64, stride int, rs *RunScratch) {
	r.column(i, a, r.all, dst, stride, rs)
}

// ColumnAt is Column for the positions in pos only — ascending, no repeats —
// writing dst[k] for each k of them and nothing else.
func (r *Run) ColumnAt(i int, a int32, pos []int32, dst []float64, rs *RunScratch) {
	r.column(i, a, pos, dst, 1, rs)
}

// HasBound reports whether feature i has BoundAt: edit or Jaro-Winkler on a
// column without a value-pair table (a tabled feature reads its cells).
func (r *Run) HasBound(i int) bool {
	f := &r.ex.features[i]
	return boundOf(f.Kind) != nil && r.ex.cols[f.AttrIdx].cells == nil
}

// BoundAt writes to dst[k], for every k of pos, a value no less than the one
// ColumnAt writes there, from the two values' character bags alone
// (similarity.EditSimBound, JaroWinklerBound): where a value is missing, the
// bound of its empty runes, above ColumnAt's Missing; +Inf for a bag without
// a bound. HasBound(i) must hold. The column's bags are built on first use,
// one per row of both sides.
func (r *Run) BoundAt(i int, a int32, pos []int32, dst []float64) {
	f := &r.ex.features[i]
	c, set := &r.ex.cols[f.AttrIdx], &r.ex.bags[f.AttrIdx]
	set.once.Do(func() { set.a, set.b = bagsOf(c.profA), bagsOf(c.profB) })
	bound, ba := boundOf(f.Kind), &set.a[a]
	for _, k := range pos {
		dst[k] = bound(ba, &set.b[r.bs[k]])
	}
}

// bagsOf is the character bags of a side's rows.
func bagsOf(ps []*similarity.Profile) []similarity.Bag {
	bags := make([]similarity.Bag, len(ps))
	for row, p := range ps {
		bags[row] = similarity.NewBag(p.Runes)
	}
	return bags
}

// jaroTile is how many whole runs Vectors scores as one tile: the most rows
// of A a B row's Jaro masks are built once for (DESIGN.md "Pair kernels",
// the sweep that set it).
const jaroTile = 16

// tile writes the feature vectors of rows whole runs in a row — pairs[t*n:
// (t+1)*n] for t < rows, one row of A each against the run's list — to flat,
// d values a pair. A row's features go through Column, except the tiled
// ones: those are scored B-major, each B row's masks built once for all of
// the tile's rows of A (similarity.JaroWinklerTile), Missing written where
// either side's value is missing, as normWrapP does.
func (r *Run) tile(pairs []record.Pair, rows int, flat []float64, d int, rs *RunScratch) {
	n := len(r.bs)
	for t := 0; t < rows; t++ {
		for f, tiled := range r.tiled {
			if !tiled {
				r.Column(f, pairs[t*n].A, flat[t*n*d+f:], d, rs)
			}
		}
	}
	if cap(rs.tileA) < jaroTile {
		rs.tileA = make([]*similarity.Profile, 0, jaroTile)
	}
	for f, tiled := range r.tiled {
		if !tiled {
			continue
		}
		c := &r.ex.cols[r.ex.features[f].AttrIdx]
		as := rs.tileA[:0]
		for t := 0; t < rows; t++ {
			as = append(as, c.profA[pairs[t*n].A])
		}
		rs.tileA = as
		for k, b := range r.bs {
			pb, dst := c.profB[b], flat[k*d+f:]
			if pb.Norm == "" {
				for t := range as {
					dst[t*n*d] = Missing
				}
				continue
			}
			similarity.JaroWinklerTile(as, pb, dst, n*d, rs.Pair)
		}
		for t, pa := range as {
			if pa.Norm == "" {
				for k := range r.bs {
					flat[(t*n+k)*d+f] = Missing
				}
			}
		}
	}
}

// column has four kernels. A feature whose attribute has a value-pair table
// reads each position's cell in place, filling an empty one from the profile
// kernel as ComputeScratch does. With the rune view and an a of at most 64
// runes it is similarity.EditSimColumn, whatever the list: a's pattern is
// built once for it. With the token view it is
// similarity.TokenPairs.MongeElkanColumn, if a has tokens, the list is at
// least 1/sparseList of the run and the slab is cheaper than the pairs. With a
// set view, an a that has tokens and such a list it walks postings.
// Everything else — a missing a, any other feature — is ComputeScratch pair
// by pair.
func (r *Run) column(i int, a int32, pos []int32, dst []float64, stride int, rs *RunScratch) {
	f := &r.ex.features[i]
	c := &r.ex.cols[f.AttrIdx]
	pa, view := c.profA[a], r.view[i]
	if c.cells != nil {
		// a's value's row of the table, from the feature's slot on: the
		// cell of b's value is width cells per value further.
		cells := c.cells[int(c.valA[a])*c.nValB*c.width+f.slot:]
		for _, k := range pos {
			b := r.bs[k]
			cell := &cells[int(c.valB[b])*c.width]
			v, ok := cell.Load()
			if !ok {
				v = f.fill(cell, pa, c.profB[b], rs.Pair)
			}
			dst[int(k)*stride] = v
		}
		return
	}
	if view != noView && pa.Norm != "" && (view == viewRunes || len(pos)*sparseList >= len(r.bs)) {
		v := &r.views[f.AttrIdx*int(numViews)+int(view)]
		v.once.Do(func() { v.build(c, view, r.bs) })
		done := false
		switch view {
		case viewRunes:
			if done = len(pa.Runes) <= 64; done {
				similarity.EditSimColumn(pa, v.profs, pos, dst, stride, rs.Pair)
			}
		case viewTokens:
			done = c.tokens.MongeElkanColumn(pa, v.tokens, pos, dst, stride, rs.Pair)
		default:
			if ka := viewKeys(pa, view); len(ka) > 0 {
				rs.walk(v, pa, ka)
				rs.finish(f.Kind, v, pa, len(ka), pos, dst, stride)
				return
			}
		}
		if done {
			for _, k := range pos {
				if v.size[k] < 0 {
					dst[int(k)*stride] = Missing
				}
			}
			return
		}
	}
	for _, k := range pos {
		dst[int(k)*stride] = r.ex.ComputeScratch(i, record.Pair{A: a, B: r.bs[k]}, rs.Pair)
	}
}

// walk leaves in cnt[k] how many of ka's codes position k's set holds — and
// in dot[k], for a weighed view, the TF/IDF dot product — for the positions
// touched[:nt], all others zero. A walk done for one request is read by the
// later requests for the same row and view.
//
// The dot product adds a's codes in ascending rank, each term W_a·TF_b·IDF
// exactly as CosineProfiles forms it (IDF is the corpus's for the rank, the
// same bits on both sides), so a position's partial sums occur in the
// merge's order and round as the merge's do; positions do not interact.
func (rs *RunScratch) walk(v *runView, pa *similarity.Profile, ka []uint64) {
	if rs.view == v && rs.a == pa {
		return
	}
	// Clear the last walk's entries before reslicing for this run.
	for _, k := range rs.touched[:rs.nt] {
		rs.cnt[k] = 0
	}
	if rs.view != nil && rs.view.tf != nil {
		for _, k := range rs.touched[:rs.nt] {
			rs.dot[k] = 0
		}
	}
	rs.nt, rs.view = 0, nil
	n := len(v.size)
	if cap(rs.cnt) < n {
		rs.cnt, rs.touched = make([]int32, n), make([]int32, n+1)
	}
	if v.tf != nil && cap(rs.dot) < n {
		rs.dot = make([]float64, n)
	}
	rs.cnt, rs.touched = rs.cnt[:n], rs.touched[:n+1]

	post := &v.post
	rs.slots = rs.slots[:0]
	for _, t := range ka {
		s, ok := slices.BinarySearch(post.Toks, t)
		if !ok {
			s = -1
		}
		rs.slots = append(rs.slots, int32(s))
	}
	cnt, dot, touched, nt := rs.cnt, rs.dot, rs.touched, 0
	for j, s := range rs.slots {
		if s < 0 {
			continue
		}
		// A position enters touched on its first count: a store always, and
		// the length grows by a flag (c−1 is negative only at c = 0).
		rows := post.Rows[post.Off[s]:post.Off[s+1]]
		if v.tf == nil {
			for _, k := range rows {
				c := cnt[k]
				touched[nt] = k
				nt += int(uint32(c-1) >> 31)
				cnt[k] = c + 1
			}
			continue
		}
		w, idf, tf := pa.TFIDF.W[j], pa.TFIDF.IDF[j], v.tf[post.Off[s]:]
		for x, k := range rows {
			c := cnt[k]
			touched[nt] = k
			nt += int(uint32(c-1) >> 31)
			cnt[k] = c + 1
			dot[k] += w * float64(tf[x]) * idf
		}
	}
	rs.nt, rs.view, rs.a = nt, v, pa
}

// finish writes the walked row's values at pos: 0 or Missing everywhere,
// then the touched positions' measure from their counts — for the whole run
// the touched list itself, for a shorter pos those of it that were counted.
func (rs *RunScratch) finish(kind string, v *runView, pa *similarity.Profile, na int, pos []int32, dst []float64, stride int) {
	untouched := [2]float64{0, Missing}
	for _, k := range pos {
		dst[int(k)*stride] = untouched[uint32(v.size[k])>>31]
	}
	if len(pos) == len(v.size) {
		pos = rs.touched[:rs.nt]
	}
	cnt := rs.cnt
	switch kind {
	case "overlap_w":
		for _, k := range pos {
			if c := cnt[k]; c > 0 {
				dst[int(k)*stride] = similarity.OverlapOf(int(c), na, int(v.size[k]))
			}
		}
	case "tfidf_cos":
		for _, k := range pos {
			if cnt[k] > 0 {
				dst[int(k)*stride] = similarity.CosineOf(rs.dot[k], pa.TFIDF.Norm, v.norm[k])
			}
		}
	default: // jaccard_w, jaccard_3g
		for _, k := range pos {
			if c := cnt[k]; c > 0 {
				dst[int(k)*stride] = similarity.JaccardOf(int(c), na, int(v.size[k]))
			}
		}
	}
}

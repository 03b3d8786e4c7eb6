package feature

import (
	"slices"
	"sync"

	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
)

const (
	// minRun is the shortest run a column is computed over: below it a's
	// token lookups and the postings build are not paid back.
	minRun = 64
	// walkCost is how many merge steps (a compare-and-advance on two streams)
	// one postings entry costs: a counter loaded, bumped and stored.
	walkCost = 3
)

// A set measure's token view: which of a profile's sorted code lists it
// intersects. Every other measure has noView, and no column kernel.
const (
	noView int8 = iota - 1
	viewWords
	viewGrams
	numViews
)

func viewOf(kind string) int8 {
	switch kind {
	case "jaccard_w", "overlap_w", "tfidf_cos":
		return viewWords
	case "jaccard_3g":
		return viewGrams
	}
	return noView
}

func viewKeys(p *similarity.Profile, view int8) []uint64 {
	if view == viewGrams {
		return p.Grams
	}
	return p.WordIDs
}

// Run is a list of table B rows that rows of table A are scored against one
// after the other — the b side of a cross product — with the list's
// postings, one per (column, token view), each built by the first Column
// call that needs it. Safe for concurrent use, a RunScratch per goroutine.
type Run struct {
	ex    *Extractor
	bs    []int32
	view  []int8    // by feature: the view Column walks, noView for pair by pair
	views []runView // [attrIdx*numViews + view]
}

// runView is one column's token view over the run. Its postings list
// positions, not rows: position k stands for row bs[k].
type runView struct {
	once sync.Once
	post simindex.Postings
	// size[k] is the size of position k's set, -1 where its value is missing:
	// a token-bearing row of A scores Missing against such a position and 0
	// against any other it shares nothing with.
	size []int32
	// The word view of a TF/IDF column also has each postings entry's term
	// frequency, parallel to post.Rows, and each position's squared norm.
	tf, norm []float64
}

// NewRun binds the list bs of table B rows (any order, repeats allowed) to
// the extractor; nil stands for all of table B in row order. bs is not
// copied and must not change.
func (e *Extractor) NewRun(bs []int32) *Run {
	if bs == nil {
		bs = make([]int32, e.B.Len())
		for b := range bs {
			bs[b] = int32(b)
		}
	}
	r := &Run{ex: e, bs: bs, view: make([]int8, len(e.features)), views: make([]runView, len(e.cols)*int(numViews))}
	for i, f := range e.features {
		r.view[i] = noView
		if len(bs) >= minRun && e.cols[f.AttrIdx].cells == nil {
			r.view[i] = viewOf(f.Kind)
		}
	}
	return r
}

// Rows returns the run's table B rows (read-only).
func (r *Run) Rows() []int32 { return r.bs }

// HasColumn reports whether Column walks postings for feature i: a set
// measure, a run long enough, no value-pair table (a cell is read faster).
func (r *Run) HasColumn(i int) bool { return r.view[i] != noView }

// build inverts the view over the run's positions.
func (v *runView) build(c *column, view int8, bs []int32) {
	weighed := view == viewWords && c.profB[bs[0]].TFIDF != nil
	v.size = make([]int32, len(bs))
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
		v.tf = make([]float64, entries)
		visit = func(entry, k, i int) { v.tf[entry] = float64(c.profB[bs[k]].TFIDF.TF[i]) }
	}
	v.post = simindex.BuildPostings(len(bs), set, visit)
}

// RunScratch is one goroutine's working state over one Run: per position
// the intersection count and TF/IDF dot product of the last row of A walked,
// and the nt positions that walk touched — kept until the next walk, so the
// measures that share a view (jaccard_w, overlap_w, tfidf_cos) share one
// walk per row. The zero value is ready; the first walk sizes it.
type RunScratch struct {
	// Pair is the scratch the pair kernels get where Column computes pair by
	// pair; nil makes the character measures allocate per call.
	Pair *similarity.Scratch

	cnt            []int32
	dot            []float64
	touched, slots []int32
	nt             int
	view           *runView // whose walk, of which row's profile, the above
	a              *similarity.Profile
}

// Column writes feature i of (a, Rows()[k]) to dst[k*stride] for every
// position k, each value math.Float64bits-identical to ComputeScratch's.
// With HasColumn(i) it walks postings when a's value has tokens and the
// walk is shorter than the merges it replaces; everything else — a missing
// or token-less a, any other feature — is ComputeScratch pair by pair.
func (r *Run) Column(i int, a int32, dst []float64, stride int, rs *RunScratch) {
	f := &r.ex.features[i]
	c := &r.ex.cols[f.AttrIdx]
	if pa, view := c.profA[a], r.view[i]; view != noView && pa.Norm != "" {
		v := &r.views[f.AttrIdx*int(numViews)+int(view)]
		v.once.Do(func() { v.build(c, view, r.bs) })
		if ka := viewKeys(pa, view); len(ka) > 0 && rs.walk(v, pa, ka) {
			rs.finish(f.Kind, v, pa, len(ka), dst, stride)
			return
		}
	}
	for k, b := range r.bs {
		dst[k*stride] = r.ex.ComputeScratch(i, record.Pair{A: a, B: b}, rs.Pair)
	}
}

// walk leaves in cnt[k] how many of ka's codes position k's set holds — and
// in dot[k], for a weighed view, the TF/IDF dot product — for the positions
// touched[:nt], all others zero. It reports false, walking nothing, when
// ka's postings are longer than 1/walkCost of the merge steps they replace.
//
// The dot product adds a's codes in ascending rank, each term W_a·TF_b·IDF
// exactly as CosineProfiles forms it (IDF is the corpus's for the rank, the
// same bits on both sides), so a position's partial sums occur in the
// merge's order and round as the merge's do; positions do not interact.
func (rs *RunScratch) walk(v *runView, pa *similarity.Profile, ka []uint64) bool {
	if rs.view == v && rs.a == pa {
		return true
	}
	if n := len(v.size); len(rs.cnt) != n {
		rs.cnt, rs.dot, rs.touched, rs.nt = make([]int32, n), make([]float64, n), make([]int32, n+1), 0
	}
	for _, k := range rs.touched[:rs.nt] {
		rs.cnt[k], rs.dot[k] = 0, 0
	}
	rs.nt, rs.view = 0, nil

	post, entries := &v.post, 0
	rs.slots = rs.slots[:0]
	for _, t := range ka {
		s, ok := slices.BinarySearch(post.Toks, t)
		if ok {
			entries += int(post.Off[s+1] - post.Off[s])
		} else {
			s = -1
		}
		rs.slots = append(rs.slots, int32(s))
	}
	if walkCost*entries > len(v.size)*len(ka)+len(post.Rows) {
		return false
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
			dot[k] += w * tf[x] * idf
		}
	}
	rs.nt, rs.view, rs.a = nt, v, pa
	return true
}

// finish writes the column of the walked row: 0 or Missing everywhere, then
// the touched positions' measure from their counts.
func (rs *RunScratch) finish(kind string, v *runView, pa *similarity.Profile, na int, dst []float64, stride int) {
	untouched := [2]float64{0, Missing}
	for k, n := range v.size {
		dst[k*stride] = untouched[uint32(n)>>31]
	}
	touched := rs.touched[:rs.nt]
	switch kind {
	case "overlap_w":
		for _, k := range touched {
			dst[int(k)*stride] = similarity.OverlapOf(int(rs.cnt[k]), na, int(v.size[k]))
		}
	case "tfidf_cos":
		for _, k := range touched {
			dst[int(k)*stride] = similarity.CosineOf(rs.dot[k], pa.TFIDF.Norm, v.norm[k])
		}
	default: // jaccard_w, jaccard_3g
		for _, k := range touched {
			dst[int(k)*stride] = similarity.JaccardOf(int(rs.cnt[k]), na, int(v.size[k]))
		}
	}
}

// Package feature implements Corleone's feature library (§4.1 step 3 and
// §5.1): every tuple pair is converted into a vector of similarity scores,
// one per (attribute, measure) combination appropriate for the attribute's
// type. The library also carries a per-feature cost model used by the
// Blocker's greedy rule selection (§4.3), and supports lazy single-feature
// evaluation so blocking rules can short-circuit over A×B.
//
// The extractor dictionary-encodes every attribute column of both tables and
// builds the columns side by side, one task per attribute, each with
// similarity.BuildColumn: one profile per distinct value, carved from
// per-chunk slabs in one pass over the values, and one serial pass over the
// column's tokens for their ids, from which ranks, IDFs, word views and
// token dictionaries follow through arrays (DESIGN.md "The column build").
// Normalization, tokenization, q-grams, TF/IDF weighing and numeric parsing
// happen once per value instead of once per comparison, so the pair-scan
// inner loop — the O(|A|·|B|) hot path — is arithmetic over prebuilt
// structures: bit masks for the character measures, sorted integer codes
// for the set measures (DESIGN.md "Record profiles", "Pair kernels"). A
// column that repeats its operands often enough also gets a write-once table
// per distinct operand pair (DESIGN.md "Operand dictionaries and write-once
// tables").
//
// A feature value has three producers, chosen by the shape of the request,
// never by an option. ComputeScratch scores one pair — the table's cell if
// it is filled, else the profile kernel, whose result fills it — for every
// sparse request: the umbrella set, seeds, a handful of probe candidates.
// A Run scores a row of table A against a list of table B rows: Column
// against all of it, ColumnAt against an ascending list of its positions
// (the blocker's verifier: the positions still matching a rule, of all of
// table B or of a shard's candidates). A tabled feature reads its cells in
// place, the set measures walk the run's postings instead of merging every
// pair, edit builds the A row's pattern once, and Monge-Elkan scores the A
// row's tokens against the run's once (DESIGN.md "Column kernels"). For edit
// and Jaro-Winkler a Run also gives BoundAt, an upper bound from the two
// values' character bags, with which the verifier settles most predicates
// without the kernel (DESIGN.md "Bounds before kernels"). Vectors
// over a cross product scores a tile of rows of A at a time: Column for each
// row, and Jaro-Winkler with each B row's masks built once for the whole
// tile. The tests pin ComputeScratch bit for bit, first touch and second, to
// package similarity's string measures, and every column, whole or by
// position, and every tile to ComputeScratch.
package feature

import (
	"fmt"
	"slices"
	"sync"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/strutil"
)

// Missing is the sentinel vector value for a feature whose inputs are
// absent. It sits below every genuine similarity (which live in [0, 1]) so
// decision-tree thresholds can route missing values down their own branch.
const Missing = -1.0

// profileFn is a similarity measure over precomputed profiles. The scratch
// carries reusable DP buffers; one scratch serves one goroutine.
type profileFn func(a, b *similarity.Profile, s *similarity.Scratch) float64

// Feature is one column of the feature vector: a similarity measure bound
// to an attribute.
type Feature struct {
	// Name is a stable human-readable identifier such as "title_jaccard_w";
	// extracted rules print it.
	Name string
	// Attr is the attribute the feature compares; AttrIdx its schema index.
	Attr    string
	AttrIdx int
	// Kind names the measure ("edit", "jaccard_w", ...).
	Kind string
	// Cost is the relative compute cost of the measure, in arbitrary units;
	// the Blocker prefers cheap rules all else equal (§4.3).
	Cost float64

	pfn profileFn
	// slot is the feature's position among its attribute's features: its
	// offset inside a cell group of the column's value-pair table.
	slot int
}

// Extractor binds a feature library to a dataset and computes vectors.
// Construction precomputes the profiles of both tables' distinct values;
// Compute, Vector and sparse Vectors route through ComputeScratch, the runs
// of a cross product through Run.tile, the verifier through Run.ColumnAt.
type Extractor struct {
	A, B     *record.Table
	features []Feature
	// cols[attrIdx] is the attribute's encoded column; zero for attributes
	// without features.
	cols []column
	// bags[attrIdx] is the column's character bags (Run.BoundAt).
	bags []bagSet
	// scratch pools per-goroutine DP buffers for callers that do not
	// thread their own (single Compute/Vector calls).
	scratch sync.Pool
}

// column is one attribute of both tables, dictionary-encoded.
type column struct {
	// profA[row] / profB[row] are the precomputed profiles: one per
	// distinct raw value, shared by every row that holds the value.
	profA, profB []*similarity.Profile
	// tokens scores the column's Monge-Elkan feature over its token
	// dictionaries; nil for columns without one.
	tokens *similarity.TokenPairs

	// width is the attribute's feature count.
	width int
	// The value-pair table, for columns worth one (worthTable): the cell of
	// feature f on a pair of rows is
	// cells[(valA[p.A]*nValB+valB[p.B])*width+f.slot], valA / valB being the
	// rows' value ids. All nil and zero otherwise.
	valA, valB []uint32
	nValB      int
	cells      []similarity.Cell
}

// bagSet is one column's character bags, a[row] / b[row] for the rows of
// either table, built by the first Run.BoundAt over the column.
type bagSet struct {
	once sync.Once
	a, b []similarity.Bag
}

// minReuse is how often, on average, the full product A×B must come back to
// one pair of operands — two distinct values of a column, or two distinct
// tokens of a Monge-Elkan column — before those pairs get a table. Below it
// a table's bytes buy too little: a job of a few thousand pairs revisits
// its name tokens about three times and is better off computing.
const minReuse = 4

// maxTableCells caps one table at 32 MiB whatever its reuse: dictionaries
// grow with the tables, and a table must never be what exhausts memory.
const maxTableCells = 1 << 22

// worthTable is the one rule both levels share: evals is how many times the
// full product would run the kernel, operands how many distinct operand
// pairs those runs are over, cells how many table cells an operand pair
// takes.
func worthTable(evals, operands, cells int) bool {
	return operands > 0 && evals >= minReuse*operands && operands*cells <= maxTableCells
}

// measure couples a similarity measure over profiles with its name, cost,
// and the profile fields it needs.
type measure struct {
	kind   string
	cost   float64
	pfn    profileFn
	fields similarity.Fields
}

// numericWrapP maps unparseable values to the Missing sentinel before
// delegating to the numeric measure; the parse happened at profile-build
// time.
func numericWrapP(f func(x, y float64) float64) profileFn {
	return func(a, b *similarity.Profile, _ *similarity.Scratch) float64 {
		if !a.NumericOK || !b.NumericOK {
			return Missing
		}
		return f(a.Numeric, b.Numeric)
	}
}

// NewExtractor builds the feature library for the dataset's schema and
// precomputes both tables' profiles. Text attributes get TF/IDF features
// whose IDFs count the attribute's rows across both tables, mirroring how EM
// systems fit IDF on the data being matched.
//
// The feature list is laid out first, in schema order; then the columns build
// side by side, one par.Each task per attribute with features, claimed as a
// goroutine frees up. The columns share nothing but one interner, which
// numbers each column's values in turn: a task interns its column under the
// interner's lock and builds it outside, so interning runs ahead of the
// builds as a pipeline and the interner's map grows once, to the largest
// column. Each column's tokens get their one map in BuildColumn.
func NewExtractor(ds *record.Dataset) *Extractor {
	e := &Extractor{A: ds.A, B: ds.B, cols: make([]column, len(ds.A.Schema)), bags: make([]bagSet, len(ds.A.Schema))}
	e.scratch.New = func() any { return similarity.NewScratch() }
	var attrs []int                                  // the attributes with features
	fields := make([]similarity.Fields, len(e.cols)) // by attribute: the views its measures read
	for idx, attr := range ds.A.Schema {
		ms := e.measures(idx, attr.Type)
		if len(ms) == 0 {
			continue
		}
		attrs = append(attrs, idx)
		for slot, m := range ms {
			fields[idx] |= m.fields
			e.features = append(e.features, Feature{
				Name:    fmt.Sprintf("%s_%s", attr.Name, m.kind),
				Attr:    attr.Name,
				AttrIdx: idx,
				Kind:    m.kind,
				Cost:    m.cost,
				pfn:     m.pfn,
				slot:    slot,
			})
		}
		e.cols[idx].width = len(ms)
	}
	pairs := int(ds.CartesianSize())
	var mu sync.Mutex
	var in strutil.Interner
	par.Each(len(attrs), func(k int) {
		idx := attrs[k]
		ids := make([]uint32, ds.A.Len()+ds.B.Len())
		valA, valB := ids[:ds.A.Len()], ids[ds.A.Len():]
		mu.Lock()
		valsA, rowsA := distinctValues(ds.A, idx, valA, &in)
		valsB, rowsB := distinctValues(ds.B, idx, valB, &in)
		mu.Unlock()
		e.cols[idx].build([][]string{valsA, valsB}, [][]int{rowsA, rowsB}, valA, valB, fields[idx], pairs)
	})
	return e
}

// measures returns the measures of attribute idx, by its type; nil for a type
// without any.
func (e *Extractor) measures(idx int, typ record.AttrType) []measure {
	col := &e.cols[idx]
	// The Monge-Elkan closure reads col.tokens on every call; the column's
	// build binds it, once the column's token dictionaries exist.
	mongeElkan := func(a, b *similarity.Profile, s *similarity.Scratch) float64 {
		return col.tokens.MongeElkan(a, b, s)
	}
	switch typ {
	case record.AttrString:
		return []measure{
			{"exact", 1, exactP, 0},
			{"jaro_winkler", 2, normWrapP(similarity.JaroWinklerProfiles), similarity.FieldRunes},
			{"edit", 5, normWrapP(similarity.EditSimProfiles), similarity.FieldRunes},
			{"jaccard_w", 3, normWrapP(noScratch(similarity.JaccardWordsProfiles)), similarity.FieldWordSet},
			{"jaccard_3g", 4, normWrapP(noScratch(similarity.JaccardQGramsProfiles)), similarity.FieldQGrams},
			{"monge_elkan", 8, normWrapP(mongeElkan), similarity.FieldTokenIDs},
		}
	case record.AttrText:
		return []measure{
			{"jaccard_w", 3, normWrapP(noScratch(similarity.JaccardWordsProfiles)), similarity.FieldWordSet},
			{"overlap_w", 3, normWrapP(noScratch(similarity.OverlapWordsProfiles)), similarity.FieldWordSet},
			{"tfidf_cos", 4, normWrapP(noScratch(similarity.CosineProfiles)), similarity.FieldTFIDF},
		}
	case record.AttrNumeric:
		return []measure{
			{"exact", 1, exactP, 0},
			{"rel_diff", 1, numericWrapP(similarity.RelativeDiff), similarity.FieldNumeric},
			{"abs_diff", 1, numericWrapP(similarity.AbsDiff), similarity.FieldNumeric},
		}
	case record.AttrCategorical:
		return []measure{
			{"exact", 1, exactP, 0},
			{"jaccard_3g", 4, normWrapP(noScratch(similarity.JaccardQGramsProfiles)), similarity.FieldQGrams},
			{"jaro_winkler", 2, normWrapP(similarity.JaroWinklerProfiles), similarity.FieldRunes},
		}
	}
	return nil
}

// build profiles the column — values[s] are side s's distinct values, held
// by rows[s][k] rows each, and valA / valB the rows' value ids — and gives
// it the value-pair table and Monge-Elkan token pairs it is worth, judged
// against the full product of pairs pairs. c.width is already set.
func (c *column) build(values [][]string, rows [][]int, valA, valB []uint32, fields similarity.Fields, pairs int) {
	dist, dicts := similarity.BuildColumn(values, rows, fields)
	distA, distB := dist[0], dist[1]
	c.profA, c.profB = perRow(distA, valA), perRow(distB, valB)
	if worthTable(pairs, len(distA)*len(distB), c.width) {
		c.valA, c.valB, c.nValB = valA, valB, len(distB)
		c.cells = make([]similarity.Cell, len(distA)*len(distB)*c.width)
	}
	if fields&similarity.FieldTokenIDs != 0 {
		// With a value table the kernel sees each distinct value pair once,
		// so that — not the rows — is what its token pairs recur over.
		opsA, opsB := c.profA, c.profB
		if c.cells != nil {
			opsA, opsB = distA, distB
		}
		dictA, dictB := dicts[0], dicts[1]
		c.tokens = similarity.NewTokenPairs(dictA, dictB,
			worthTable(countTokens(opsA)*countTokens(opsB), dictA.Len()*dictB.Len(), 1))
	}
}

// distinctValues dictionary-encodes one attribute column: ids[row] receives
// the row's value id — ids count up in first-seen row order — and the
// distinct values come back by id, with how many rows hold each. in is reset
// first and holds the value → id map only for the duration of the call.
func distinctValues(t *record.Table, attrIdx int, ids []uint32, in *strutil.Interner) (values []string, rows []int) {
	in.Reset()
	for i, row := range t.Rows {
		ids[i] = in.ID(row[attrIdx])
	}
	rows = make([]int, len(in.Values))
	for _, k := range ids {
		rows[k]++
	}
	return append([]string(nil), in.Values...), rows
}

// perRow is the per-row column over the distinct values' profiles: every
// row holding a value shares its one profile.
func perRow(distinct []*similarity.Profile, ids []uint32) []*similarity.Profile {
	rows := make([]*similarity.Profile, len(ids))
	for i, k := range ids {
		rows[i] = distinct[k]
	}
	return rows
}

// countTokens sums the token counts of the given profiles.
func countTokens(ps []*similarity.Profile) int {
	n := 0
	for _, p := range ps {
		n += len(p.Tokens)
	}
	return n
}

// exactP adapts ExactMatchProfiles to the profileFn shape (no scratch, no
// normWrapP: exact match defines its own missing-value semantics).
func exactP(a, b *similarity.Profile, _ *similarity.Scratch) float64 {
	return similarity.ExactMatchProfiles(a, b)
}

// noScratch adapts scratch-free profile measures to the profileFn shape.
func noScratch(f func(a, b *similarity.Profile) float64) profileFn {
	return func(a, b *similarity.Profile, _ *similarity.Scratch) float64 {
		return f(a, b)
	}
}

// normWrapP maps missing values (empty after normalization, which happened
// at profile-build time) to the Missing sentinel before delegating to the
// measure.
func normWrapP(f profileFn) profileFn {
	return func(a, b *similarity.Profile, s *similarity.Scratch) float64 {
		if a.Norm == "" || b.Norm == "" {
			return Missing
		}
		return f(a, b, s)
	}
}

// NumFeatures returns the width of the feature vector.
func (e *Extractor) NumFeatures() int { return len(e.features) }

// Features returns the library entries (read-only view).
func (e *Extractor) Features() []Feature { return e.features }

// Names returns the feature names in vector order.
func (e *Extractor) Names() []string {
	out := make([]string, len(e.features))
	for i, f := range e.features {
		out[i] = f.Name
	}
	return out
}

// Name returns the name of feature i.
func (e *Extractor) Name(i int) string { return e.features[i].Name }

// Cost returns the compute cost of feature i.
func (e *Extractor) Cost(i int) float64 { return e.features[i].Cost }

// Profiles returns the precomputed profile columns backing feature i — one
// per row of table A and table B respectively. Index builders (the
// blocker's similarity-join planner) consume them directly; callers must
// treat both slices as read-only.
func (e *Extractor) Profiles(i int) (a, b []*similarity.Profile) {
	c := &e.cols[e.features[i].AttrIdx]
	return c.profA, c.profB
}

// Compute evaluates a single feature for pair p with a pooled scratch: the
// convenience form of ComputeScratch for one-off calls (tests, examples).
func (e *Extractor) Compute(i int, p record.Pair) float64 {
	s := e.scratch.Get().(*similarity.Scratch)
	v := e.ComputeScratch(i, p, s)
	e.scratch.Put(s)
	return v
}

// ComputeScratch evaluates a single feature with a caller-owned scratch —
// the form the parallel loops use, one scratch per worker. It is the
// pair-at-a-time producer of feature values (Run.Column and ColumnAt, the
// run-at-a-time ones, equal it bit for bit): the cell of the column's
// value-pair table if it is filled, else the profile kernel, whose result
// fills the cell. Workers racing on an empty cell compute and store the same
// bits (similarity.Cell), so the output is the kernel's at every GOMAXPROCS
// and in every call order.
func (e *Extractor) ComputeScratch(i int, p record.Pair, s *similarity.Scratch) float64 {
	f := &e.features[i]
	c := &e.cols[f.AttrIdx]
	if c.cells != nil {
		cell := &c.cells[(int(c.valA[p.A])*c.nValB+int(c.valB[p.B]))*c.width+f.slot]
		if v, ok := cell.Load(); ok {
			return v
		}
		return f.fill(cell, c.profA[p.A], c.profB[p.B], s)
	}
	return f.pfn(c.profA[p.A], c.profB[p.B], s)
}

// fill fills an empty cell of the feature's value-pair table: the profile
// kernel's value on the pair's profiles, stored and returned.
func (f *Feature) fill(cell *similarity.Cell, pa, pb *similarity.Profile, s *similarity.Scratch) float64 {
	v := f.pfn(pa, pb, s)
	cell.Store(v)
	return v
}

// Vector computes the full feature vector for pair p.
func (e *Extractor) Vector(p record.Pair) []float64 {
	s := e.scratch.Get().(*similarity.Scratch)
	v := e.VectorScratch(p, s)
	e.scratch.Put(s)
	return v
}

// VectorScratch computes the full feature vector with a caller-owned
// scratch.
func (e *Extractor) VectorScratch(p record.Pair, s *similarity.Scratch) []float64 {
	v := make([]float64, len(e.features))
	for i := range e.features {
		v[i] = e.ComputeScratch(i, p, s)
	}
	return v
}

// Vectors computes feature vectors for all pairs, fanning out across
// GOMAXPROCS goroutines with one scratch per worker. Order matches the
// input order. The rows are views into one len(pairs)×NumFeatures backing
// array — one allocation instead of one per pair — each clipped to its own
// capacity, so appending to a row reallocates instead of writing into the
// next one.
//
// In a cross product — the blocker's sample, all of A×B below t_B — every
// row of A meets the same list of B rows; crossRun reads that shape off the
// input. Up to jaroTile such runs in a row within a worker's chunk are scored
// as one tile (Run.tile): each row's features by Run.Column, the untabled
// jaro_winkler ones B row by B row for the whole tile. A run cut by a
// worker's chunk boundary, and any stretch that is not the list again, is
// computed pair by pair. The values are the same bits either way.
func (e *Extractor) Vectors(pairs []record.Pair) [][]float64 {
	d := len(e.features)
	flat := make([]float64, len(pairs)*d)
	out := make([][]float64, len(pairs))
	run := e.crossRun(pairs)
	par.For(len(pairs), func(lo, hi int) {
		s := similarity.NewScratch()
		rs := RunScratch{Pair: s}
		for i := lo; i < hi; i++ {
			out[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
		for i := lo; i < hi; {
			if run != nil && run.leads(pairs[i:hi]) {
				n, rows := len(run.bs), 1
				for rows < jaroTile && run.leads(pairs[min(i+rows*n, hi):hi]) {
					rows++
				}
				run.tile(pairs[i:], rows, flat[i*d:], d, &rs)
				i += rows * n
				continue
			}
			for f := range out[i] {
				out[i][f] = e.ComputeScratch(f, pairs[i], s)
			}
			i++
		}
	})
	return out
}

// crossRun returns the Run of the B rows of pairs' first run — its leading
// pairs with one row of A — when that list holds at least two B rows (over
// one, a walk's binary searches cost more than one pair's merge), the next
// row of A repeats it, the input is long enough to hold it minReuse times
// over (what building its views takes to pay back), and some feature has a
// column over it; nil otherwise.
func (e *Extractor) crossRun(pairs []record.Pair) *Run {
	n := 0
	for n < len(pairs) && pairs[n].A == pairs[0].A {
		n++
	}
	if n < 2 || len(pairs) < minReuse*n || !slices.EqualFunc(pairs[:n], pairs[n:2*n],
		func(p, q record.Pair) bool { return p.B == q.B && q.A == pairs[n].A }) {
		return nil
	}
	bs := make([]int32, n)
	for k := range bs {
		bs[k] = pairs[k].B
	}
	if run := e.NewRun(bs); slices.ContainsFunc(run.view, func(v int8) bool { return v != noView }) {
		return run
	}
	return nil
}

// leads reports whether pairs begins with one row of A against exactly the
// run's list.
func (r *Run) leads(pairs []record.Pair) bool {
	return len(pairs) >= len(r.bs) && slices.EqualFunc(pairs[:len(r.bs)], r.bs,
		func(p record.Pair, b int32) bool { return p.B == b && p.A == pairs[0].A })
}

package shard

import (
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// Verifier evaluates a full blocking-rule set with lazily computed,
// memoized features — the exact §4.3 semantics every candidate-generation
// strategy shares. The exhaustive scan, in-process shard workers, and
// remote shard workers all verify through this one evaluator, which is why
// their outputs are bit-identical: candidate generation only ever decides
// which pairs get *checked*, never which pairs *survive*.
//
// Two entry points share one rule walk. Survives checks a lone pair with the
// pair kernels: what a shard prober calls on its sparse candidate lists.
// RowSurvivors checks a row of table A against a whole feature.Run — the
// scan's unit of work — reading the features that have a column kernel from
// a column computed over the run the first time a rule reaches the feature
// in that row; the values are the pair kernels' to the bit. One Verifier
// serves one goroutine.
type Verifier struct {
	ex      *feature.Extractor
	rules   []tree.Rule
	feats   []int // the features the rules reference: the memo entries to clear per pair
	vals    []float64
	have    []bool
	scratch *similarity.Scratch

	// Row state, bound to run by RowSurvivors: cols[f] is feature f's column
	// over the run for row colRow[f] of A; nil unless f is in feats and the
	// run has a column kernel for it.
	run    *feature.Run
	rs     feature.RunScratch
	cols   [][]float64
	colRow []int32
}

// NewVerifier binds the rule set to the extractor.
func NewVerifier(ex *feature.Extractor, rules []tree.Rule) *Verifier {
	v := &Verifier{
		ex:      ex,
		rules:   rules,
		vals:    make([]float64, ex.NumFeatures()),
		have:    make([]bool, ex.NumFeatures()),
		scratch: similarity.NewScratch(),
	}
	for _, r := range rules {
		for _, p := range r.Preds {
			if !v.have[p.Feature] {
				v.have[p.Feature] = true
				v.feats = append(v.feats, p.Feature)
			}
		}
	}
	return v
}

// Survives reports whether no rule eliminates p. Features are computed at
// most once per pair and shared across rules.
func (v *Verifier) Survives(p record.Pair) bool { return v.survives(p, -1) }

// RowSurvivors appends to dst, in run order, the pairs of row a of table A
// with the rows of run that no rule eliminates.
func (v *Verifier) RowSurvivors(dst []record.Pair, a int32, run *feature.Run) []record.Pair {
	if v.run != run {
		v.run, v.rs = run, feature.RunScratch{Pair: v.scratch}
		v.cols, v.colRow = make([][]float64, len(v.vals)), make([]int32, len(v.vals))
		for _, f := range v.feats {
			if run.HasColumn(f) {
				v.cols[f], v.colRow[f] = make([]float64, len(run.Rows())), -1
			}
		}
	}
	for k, b := range run.Rows() {
		if p := (record.Pair{A: a, B: b}); v.survives(p, k) {
			dst = append(dst, p)
		}
	}
	return dst
}

// survives is the rule walk; k is p.B's position in the bound run, or -1
// for a lone pair.
func (v *Verifier) survives(p record.Pair, k int) bool {
	for _, f := range v.feats {
		v.have[f] = false
	}
	get := func(f int) float64 {
		if v.have[f] {
			return v.vals[f]
		}
		var x float64
		if k >= 0 && v.cols[f] != nil {
			if v.colRow[f] != p.A {
				v.run.Column(f, p.A, v.cols[f], 1, &v.rs)
				v.colRow[f] = p.A
			}
			x = v.cols[f][k]
		} else {
			x = v.ex.ComputeScratch(f, p, v.scratch)
		}
		v.vals[f], v.have[f] = x, true
		return x
	}
	for _, r := range v.rules {
		if r.MatchesFunc(get) {
			return false
		}
	}
	return true
}

package shard

import (
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// Verifier evaluates a full blocking-rule set with lazily computed,
// memoized features — the exact §4.3 semantics every candidate-generation
// strategy shares. Blocking's scan and index plans, in-process shard
// workers, and remote shard workers all verify through its one entry point,
// which is why their outputs are bit-identical: candidate generation only
// ever decides which pairs get *checked*, never which pairs *survive*.
//
// RowSurvivors checks a row of table A against positions of a feature.Run —
// all of them for the scan, a shard's candidates for a prober — rule by rule
// and column by column: each predicate fetches its feature for exactly the
// positions that still match its rule, so the cells computed are the ones a
// pair-at-a-time walk with short-circuiting rules would compute, the values
// the pair kernels' to the bit. One Verifier serves one goroutine.
//
// An edit or Jaro-Winkler predicate with 0 ≤ θ < 1 bounds before it
// computes (feature.Run.BoundAt): a position whose bound is at most θ has a
// value at most θ, so the predicate holds there for ≤ and fails for >, and
// only the others are computed. The bound stands in the value array for the
// decided positions and is never stamped, so a later predicate on the
// feature bounds them again against its own θ (DESIGN.md §6.1 "Bounds
// before kernels"). Outside that range — below 0 a bound decides only a
// missing value, and a learned θ stays below 1 — the predicate computes as
// it would without one.
type Verifier struct {
	rules []tree.Rule
	rs    feature.RunScratch

	// A feature more than one predicate reads (shared lists them) keeps its
	// values for the row: vals[f][k], valid where stamp[f][k] is the row's
	// epoch; both nil for a feature read once. buf is where the others' go.
	shared             []int
	vals               [][]float64
	stamp              [][]uint32
	buf                []float64
	epoch              uint32
	alive, need, match []int32
}

// NewVerifier binds the rule set to the extractor.
func NewVerifier(ex *feature.Extractor, rules []tree.Rule) *Verifier {
	v := &Verifier{
		rules: rules,
		rs:    feature.RunScratch{Pair: similarity.NewScratch()},
		vals:  make([][]float64, ex.NumFeatures()),
		stamp: make([][]uint32, ex.NumFeatures()),
	}
	reads := make([]int, ex.NumFeatures())
	for _, r := range rules {
		for _, p := range r.Preds {
			if reads[p.Feature]++; reads[p.Feature] == 2 {
				v.shared = append(v.shared, p.Feature)
			}
		}
	}
	return v
}

// size readies the arrays for a new row, m positions of a run of n: the
// lists hold m, the value arrays, indexed by position, n. All grow to the
// longest met, and a stamp of an earlier row never equals the new epoch.
func (v *Verifier) size(m, n int) {
	if v.epoch++; v.epoch == 0 { // wrapped: forget every stamp
		for _, f := range v.shared {
			clear(v.stamp[f][:cap(v.stamp[f])])
		}
		v.epoch = 1
	}
	if cap(v.buf) < n {
		v.buf = make([]float64, n)
	}
	if cap(v.alive) < m {
		v.alive, v.need, v.match = make([]int32, m), make([]int32, m), make([]int32, m)
	}
	for _, f := range v.shared {
		if v.stamp[f] == nil || cap(v.stamp[f]) < n {
			v.vals[f], v.stamp[f] = make([]float64, n), make([]uint32, n)
		}
		v.vals[f], v.stamp[f] = v.vals[f][:n], v.stamp[f][:n]
	}
}

// RowSurvivors appends to dst, in run order, the pairs of row a of table A
// with the run's rows at the ascending positions pos that no rule eliminates:
// run.Positions() checks the whole run, an empty or nil list nothing.
func (v *Verifier) RowSurvivors(dst []record.Pair, a int32, run *feature.Run, pos []int32) []record.Pair {
	if len(pos) == 0 {
		return dst
	}
	v.size(len(pos), len(run.Rows()))
	alive := append(v.alive[:0], pos...)
	for _, r := range v.rules {
		// match: the alive positions the rule's predicates so far all hold on.
		match := alive
		for _, p := range r.Preds {
			vals := v.fetch(p, a, run, match)
			if match = filter(v.match[:len(match)], match, vals, p); len(match) == 0 {
				break
			}
		}
		if len(match) == len(alive) {
			return dst
		}
		if len(match) > 0 {
			alive = subtract(alive, match)
		}
	}
	rows := run.Rows()
	for _, k := range alive {
		dst = append(dst, record.Pair{A: a, B: rows[k]})
	}
	return dst
}

// fetch returns an array holding, at every k of pos, the predicate's
// feature of (a, position k) — or a bound of it that decides the predicate —
// computing those no earlier predicate of this row fetched and no bound
// decides.
func (v *Verifier) fetch(p tree.Predicate, a int32, run *feature.Run, pos []int32) []float64 {
	f := p.Feature
	vals, need, stamp := v.buf[:len(run.Rows())], pos, v.stamp[f]
	if stamp != nil {
		vals, need = v.vals[f], v.need[:len(pos)]
		n := 0
		for _, k := range pos {
			need[n] = k
			n += similarity.B2i(stamp[k] != v.epoch)
		}
		need = need[:n]
	}
	if len(need) > 0 && 0 <= p.Threshold && p.Threshold < 1 && run.HasBound(f) {
		run.BoundAt(f, a, need, vals)
		undecided, n := v.need[:len(need)], 0
		for _, k := range need {
			undecided[n] = k
			n += similarity.B2i(vals[k] > p.Threshold)
		}
		need = undecided[:n]
	}
	if stamp != nil {
		for _, k := range need {
			stamp[k] = v.epoch
		}
	}
	if len(need) > 0 {
		run.ColumnAt(f, a, need, vals, &v.rs)
	}
	return vals
}

// filter writes to dst the positions of src whose value the predicate holds
// on, in order; dst may be src. Holding is a flag added to the length, not a
// branch; a NaN fails both operators, as in Predicate.Holds.
func filter(dst, src []int32, vals []float64, p tree.Predicate) []int32 {
	n := 0
	if p.Op == tree.LE {
		for _, k := range src {
			dst[n] = k
			n += similarity.B2i(vals[k] <= p.Threshold)
		}
	} else {
		for _, k := range src {
			dst[n] = k
			n += similarity.B2i(vals[k] > p.Threshold)
		}
	}
	return dst[:n]
}

// subtract removes match, a subsequence of alive, from it in place.
func subtract(alive, match []int32) []int32 {
	n, j := 0, 0
	for _, k := range alive {
		hit := similarity.B2i(j < len(match) && match[j] == k)
		alive[n] = k
		n += 1 - hit
		j += hit
	}
	return alive[:n]
}

package shard

import (
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// pairWalk is the retired per-pair rule walk, kept as the oracle
// RowSurvivors is pinned to: one pair at a time, the rules in order, each
// predicate short-circuiting its rule, each feature computed by the pair
// kernel the first time a predicate asks for it and memoized across the
// pair's rules. Its outcomes are the exact values'. computed[f] counts the
// kernel evaluations a walk that bounds first would make: a predicate with
// 0 ≤ θ < 1 on a feature with a bound (Run.HasBound) whose value is not yet
// memoized computes nothing where the pair's bound — the similarity bound
// over the two values' bags, built from scratch for the pair — is at most θ.
// decided counts those predicates, unsound those of them whose exact value
// exceeds θ after all.
type pairWalk struct {
	ex       *feature.Extractor
	rules    []tree.Rule
	feats    []int // the features the rules reference: the memo entries to clear per pair
	vals     []float64
	have     []bool
	paid     []bool // the bounding walk has computed the feature for this pair
	bound    []func(a, b *similarity.Bag) float64
	scratch  *similarity.Scratch
	computed []int

	decided, unsound int
}

func newPairWalk(ex *feature.Extractor, rules []tree.Rule) *pairWalk {
	w := &pairWalk{
		ex:       ex,
		rules:    rules,
		vals:     make([]float64, ex.NumFeatures()),
		have:     make([]bool, ex.NumFeatures()),
		paid:     make([]bool, ex.NumFeatures()),
		bound:    make([]func(a, b *similarity.Bag) float64, ex.NumFeatures()),
		scratch:  similarity.NewScratch(),
		computed: make([]int, ex.NumFeatures()),
	}
	run := ex.NewRun(nil)
	for _, r := range rules {
		for _, p := range r.Preds {
			if !w.have[p.Feature] {
				w.have[p.Feature] = true
				w.feats = append(w.feats, p.Feature)
			}
		}
	}
	for _, f := range w.feats {
		if !run.HasBound(f) {
			continue
		}
		switch ex.Features()[f].Kind {
		case "edit":
			w.bound[f] = similarity.EditSimBound
		case "jaro_winkler":
			w.bound[f] = similarity.JaroWinklerBound
		}
	}
	return w
}

// Survives reports whether no rule eliminates p.
func (w *pairWalk) Survives(p record.Pair) bool {
	for _, f := range w.feats {
		w.have[f], w.paid[f] = false, false
	}
	for _, r := range w.rules {
		matches := true
		for _, q := range r.Preds {
			if matches = q.Holds(w.get(q, p)); !matches {
				break
			}
		}
		if matches {
			return false
		}
	}
	return true
}

// get returns the predicate's feature of p, counting the kernel evaluation
// a bounding walk would make.
func (w *pairWalk) get(q tree.Predicate, p record.Pair) float64 {
	f := q.Feature
	if !w.have[f] {
		w.vals[f], w.have[f] = w.ex.ComputeScratch(f, p, w.scratch), true
	}
	if w.paid[f] {
		return w.vals[f]
	}
	if bound := w.bound[f]; bound != nil && 0 <= q.Threshold && q.Threshold < 1 {
		pa, pb := w.ex.Profiles(f)
		ba, bb := similarity.NewBag(pa[p.A].Runes), similarity.NewBag(pb[p.B].Runes)
		if bound(&ba, &bb) <= q.Threshold {
			w.decided++
			if !(w.vals[f] <= q.Threshold) {
				w.unsound++
			}
			return w.vals[f]
		}
	}
	w.paid[f] = true
	w.computed[f]++
	return w.vals[f]
}

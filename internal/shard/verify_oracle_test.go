package shard

import (
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// pairWalk is the retired per-pair rule walk, kept as the oracle
// RowSurvivors is pinned to: one pair at a time, the rules in order through
// Rule.MatchesFunc, each feature computed by the pair kernel the first time
// a predicate asks for it and memoized across the pair's rules. computed[f]
// counts those kernel evaluations.
type pairWalk struct {
	ex       *feature.Extractor
	rules    []tree.Rule
	feats    []int // the features the rules reference: the memo entries to clear per pair
	vals     []float64
	have     []bool
	scratch  *similarity.Scratch
	computed []int
}

func newPairWalk(ex *feature.Extractor, rules []tree.Rule) *pairWalk {
	w := &pairWalk{
		ex:       ex,
		rules:    rules,
		vals:     make([]float64, ex.NumFeatures()),
		have:     make([]bool, ex.NumFeatures()),
		scratch:  similarity.NewScratch(),
		computed: make([]int, ex.NumFeatures()),
	}
	for _, r := range rules {
		for _, p := range r.Preds {
			if !w.have[p.Feature] {
				w.have[p.Feature] = true
				w.feats = append(w.feats, p.Feature)
			}
		}
	}
	return w
}

// Survives reports whether no rule eliminates p.
func (w *pairWalk) Survives(p record.Pair) bool {
	for _, f := range w.feats {
		w.have[f] = false
	}
	get := func(f int) float64 {
		if !w.have[f] {
			w.vals[f], w.have[f] = w.ex.ComputeScratch(f, p, w.scratch), true
			w.computed[f]++
		}
		return w.vals[f]
	}
	for _, r := range w.rules {
		if r.MatchesFunc(get) {
			return false
		}
	}
	return true
}

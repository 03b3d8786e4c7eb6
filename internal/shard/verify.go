package shard

import (
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// Verifier evaluates a full blocking-rule set on one pair with lazily
// computed, memoized features — the exact §4.3 semantics every candidate-
// generation strategy shares. The exhaustive scan, in-process shard
// workers, and remote shard workers all verify through this one evaluator,
// which is why their outputs are bit-identical: candidate generation only
// ever decides which pairs get *checked*, never which pairs *survive*. One
// Verifier serves one goroutine.
type Verifier struct {
	ex      *feature.Extractor
	rules   []tree.Rule
	vals    []float64
	have    []bool
	scratch *similarity.Scratch
}

// NewVerifier binds the rule set to the extractor.
func NewVerifier(ex *feature.Extractor, rules []tree.Rule) *Verifier {
	return &Verifier{
		ex:      ex,
		rules:   rules,
		vals:    make([]float64, ex.NumFeatures()),
		have:    make([]bool, ex.NumFeatures()),
		scratch: similarity.NewScratch(),
	}
}

// Survives reports whether no rule eliminates p. Features are computed at
// most once per pair and shared across rules.
func (v *Verifier) Survives(p record.Pair) bool {
	for i := range v.have {
		v.have[i] = false
	}
	get := func(f int) float64 {
		if !v.have[f] {
			v.vals[f] = v.ex.ComputeScratch(f, p, v.scratch)
			v.have[f] = true
		}
		return v.vals[f]
	}
	for _, r := range v.rules {
		if r.MatchesFunc(get) {
			return false
		}
	}
	return true
}

// Package metrics computes true matching accuracy against a gold standard:
// precision, recall, and F1. "True" metrics are what the paper reports in
// its P/R/F1 columns; Corleone itself never sees them — it relies on the
// Estimator's crowd-based estimates.
package metrics

import (
	"fmt"

	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/stats"
)

// PRF is a precision / recall / F1 triple, in percent.
type PRF struct {
	P, R, F1 float64
}

// String renders "P=97.0 R=96.1 F1=96.5".
func (m PRF) String() string {
	return fmt.Sprintf("P=%.1f R=%.1f F1=%.1f", m.P, m.R, m.F1)
}

// Evaluate scores a set of predicted match pairs against the gold standard.
// Recall is computed against ALL true matches in A×B, so pairs lost during
// blocking count against recall — matching how Table 2 reports overall
// accuracy.
func Evaluate(predicted []record.Pair, truth *record.GroundTruth) PRF {
	tp := truth.CountMatchesIn(predicted)
	return fromCounts(tp, len(predicted), truth.NumMatches())
}

// EvaluateOn scores predictions restricted to a subset: recall counts only
// true matches within the subset (used for the difficult-pair analysis of
// §9.3, where the universe is the reduced set C').
func EvaluateOn(predicted []record.Pair, subset []record.Pair, truth *record.GroundTruth) PRF {
	inSubset := record.NewPairSet(subset...)
	tp, pp := 0, 0
	for _, p := range predicted {
		if !inSubset.Has(p) {
			continue
		}
		pp++
		if truth.Match(p) {
			tp++
		}
	}
	ap := truth.CountMatchesIn(subset)
	return fromCounts(tp, pp, ap)
}

func fromCounts(tp, predictedPos, actualPos int) PRF {
	var p, r float64
	if predictedPos > 0 {
		p = float64(tp) / float64(predictedPos)
	}
	if actualPos > 0 {
		r = float64(tp) / float64(actualPos)
	}
	return PRF{P: 100 * p, R: 100 * r, F1: 100 * stats.F1(p, r)}
}

// Package matcher implements §5: training a random-forest matcher over the
// candidate set C with crowdsourced active learning, then applying it to
// predict matches. The heavy lifting — example selection, confidence
// monitoring, stopping — lives in package active; the matcher owns the
// "train on everything labeled so far, then predict C" protocol.
package matcher

import (
	"github.com/corleone-em/corleone/internal/active"
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
)

// Config wraps the active-learning configuration.
type Config struct {
	Active active.Config
}

// Defaults returns the paper's configuration.
func Defaults() Config { return Config{Active: active.Defaults()} }

// Result is a trained, applied matcher.
type Result struct {
	// Forest is the selected classifier.
	Forest *forest.Forest
	// Predictions[i] is the match prediction for the i-th candidate pair.
	Predictions []bool
	// PositiveCount is the number of predicted matches.
	PositiveCount int
	// Negative and Positive are Forest's rules covering the candidates.
	Negative, Positive []ruleeval.Candidate
	// Training is every labeled example the matcher trained on.
	Training []record.Labeled
	// Trace is the active-learning diagnostic trace (Figure 3 series).
	Trace active.Trace
}

// Run trains a matcher on the candidate pool (pairs, X) starting from the
// given labeled examples (user seeds plus anything the crowd has already
// labeled, per §5.1), then applies it to every candidate in one walk.
func Run(runner *crowd.Runner, pairs []record.Pair, X [][]float64,
	initial []record.Labeled, initialX [][]float64, cfg Config) (*Result, error) {

	learned, err := active.Learn(runner, pairs, X, initial, initialX, cfg.Active)
	if err != nil {
		return nil, err
	}
	res := &Result{Forest: learned.Forest, Training: learned.Training, Trace: learned.Trace}
	res.Negative, res.Positive, res.Predictions = ruleeval.CoverByLeaf(learned.Forest, X)
	for _, pos := range res.Predictions {
		if pos {
			res.PositiveCount++
		}
	}
	return res, nil
}

// PredictedMatches returns the candidate pairs predicted positive.
func (r *Result) PredictedMatches(pairs []record.Pair) []record.Pair {
	out := make([]record.Pair, 0, r.PositiveCount)
	for i, pos := range r.Predictions {
		if pos {
			out = append(out, pairs[i])
		}
	}
	return out
}

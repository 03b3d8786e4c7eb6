package matcher

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
)

func makePool(n int, seed int64) (pairs []record.Pair, X [][]float64,
	truth *record.GroundTruth, seeds []record.Labeled, seedX [][]float64) {

	rng := rand.New(rand.NewSource(seed))
	var matches []record.Pair
	for i := 0; i < n; i++ {
		p := record.P(i, i)
		pairs = append(pairs, p)
		if rng.Float64() < 0.1 {
			X = append(X, []float64{0.7 + 0.3*rng.Float64(), rng.Float64()})
			matches = append(matches, p)
		} else {
			X = append(X, []float64{0.6 * rng.Float64(), rng.Float64()})
		}
	}
	truth = record.NewGroundTruth(matches)
	seeds = []record.Labeled{
		{Pair: record.P(n, n), Match: true},
		{Pair: record.P(n+1, n+1), Match: true},
		{Pair: record.P(n+2, n+2), Match: false},
		{Pair: record.P(n+3, n+3), Match: false},
	}
	seedX = [][]float64{{0.9, 0.5}, {0.8, 0.2}, {0.1, 0.9}, {0.3, 0.4}}
	return
}

func TestRunTrainsAndPredicts(t *testing.T) {
	pairs, X, truth, seeds, seedX := makePool(1500, 1)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	runner.SeedLabels(seeds)
	res, err := Run(runner, pairs, X, seeds, seedX, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != len(pairs) {
		t.Fatalf("predictions length %d != %d", len(res.Predictions), len(pairs))
	}
	// Count prediction errors against truth.
	errs := 0
	for i, p := range pairs {
		if res.Predictions[i] != truth.Match(p) {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(pairs)); frac > 0.03 {
		t.Errorf("error rate %.3f, want <= 0.03", frac)
	}
	// PositiveCount is consistent.
	count := 0
	for _, p := range res.Predictions {
		if p {
			count++
		}
	}
	if count != res.PositiveCount {
		t.Errorf("PositiveCount = %d, counted %d", res.PositiveCount, count)
	}
	if res.Forest == nil || res.Trace.Iterations == 0 {
		t.Fatal("missing forest or trace")
	}
	// One walk: the predictions are Predict's, and the candidates are a
	// fresh walk's over the same pool.
	for i, v := range X {
		if res.Predictions[i] != res.Forest.Predict(v) {
			t.Fatalf("row %d: prediction %v, Predict %v", i, res.Predictions[i], res.Forest.Predict(v))
		}
	}
	neg, pos, _ := ruleeval.CoverByLeaf(res.Forest, X)
	if len(neg) == 0 || len(pos) == 0 || !reflect.DeepEqual(res.Negative, neg) || !reflect.DeepEqual(res.Positive, pos) {
		t.Errorf("candidates: %d negative, %d positive; want %d and %d from a fresh walk",
			len(res.Negative), len(res.Positive), len(neg), len(pos))
	}
}

func TestPredictedMatches(t *testing.T) {
	pairs := []record.Pair{record.P(0, 0), record.P(1, 1), record.P(2, 2)}
	res := &Result{Predictions: []bool{true, false, true}, PositiveCount: 2}
	got := res.PredictedMatches(pairs)
	if len(got) != 2 || got[0] != record.P(0, 0) || got[1] != record.P(2, 2) {
		t.Errorf("PredictedMatches = %v", got)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	runner := crowd.NewRunner(&crowd.Oracle{Truth: record.NewGroundTruth(nil)}, 0.01)
	if _, err := Run(runner, nil, nil, nil, nil, Defaults()); err == nil {
		t.Error("no seeds should error")
	}
}

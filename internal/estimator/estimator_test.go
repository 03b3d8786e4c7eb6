package estimator

import (
	"math"
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
)

// world builds a skewed candidate set: n pairs, density fraction of true
// matches (feature x0 near 1), and a matcher forest trained on clean data.
// The matcher is imperfect by construction when noise > 0: a slice of
// matches gets ambiguous features.
type world struct {
	pairs []record.Pair
	X     [][]float64
	truth *record.GroundTruth
	f     *forest.Forest
	preds []bool
	known []record.Labeled
}

func makeWorld(n int, density float64, seed int64) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{}
	var matches []record.Pair
	var trainX [][]float64
	var trainY []bool
	for i := 0; i < n; i++ {
		p := record.P(i, i)
		w.pairs = append(w.pairs, p)
		if rng.Float64() < density {
			v := []float64{0.7 + 0.3*rng.Float64(), rng.Float64()}
			w.X = append(w.X, v)
			matches = append(matches, p)
		} else {
			v := []float64{0.6 * rng.Float64(), rng.Float64()}
			w.X = append(w.X, v)
		}
	}
	w.truth = record.NewGroundTruth(matches)
	for i := 0; i < 200; i++ {
		pos := i%2 == 0
		if pos {
			trainX = append(trainX, []float64{0.7 + 0.3*rng.Float64(), rng.Float64()})
		} else {
			trainX = append(trainX, []float64{0.6 * rng.Float64(), rng.Float64()})
		}
		trainY = append(trainY, pos)
	}
	cfg := forest.Defaults()
	cfg.Seed = seed
	w.f = forest.Train(trainX, trainY, cfg)
	w.preds = make([]bool, len(w.X))
	for i, v := range w.X {
		w.preds[i] = w.f.Predict(v)
	}
	// A few known labels (as the engine would carry from training).
	for i := 0; i < 20; i++ {
		w.known = append(w.known, record.Labeled{
			Pair: w.pairs[i], Match: w.truth.Match(w.pairs[i])})
	}
	return w
}

func truePR(w *world) (p, r float64) {
	tp, pp, ap := 0, 0, 0
	for i, pr := range w.pairs {
		if w.preds[i] {
			pp++
		}
		if w.truth.Match(pr) {
			ap++
		}
		if w.preds[i] && w.truth.Match(pr) {
			tp++
		}
	}
	return float64(tp) / float64(pp), float64(tp) / float64(ap)
}

func TestEstimateBaselineConverges(t *testing.T) {
	w := makeWorld(4000, 0.2, 1) // dense: baseline is viable here
	runner := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	rng := rand.New(rand.NewSource(2))
	res := EstimateBaseline(rng, runner, w.pairs, w.preds, Defaults())
	p, r := truePR(w)
	if math.Abs(res.Precision.Point-p) > 0.1 {
		t.Errorf("P estimate %v vs true %v", res.Precision.Point, p)
	}
	if math.Abs(res.Recall.Point-r) > 0.1 {
		t.Errorf("R estimate %v vs true %v", res.Recall.Point, r)
	}
	if res.Precision.Margin > 0.05+1e-9 || res.Recall.Margin > 0.05+1e-9 {
		t.Errorf("margins not reached: %v %v", res.Precision.Margin, res.Recall.Margin)
	}
	if res.LabelsUsed == 0 {
		t.Error("no labels used")
	}
}

func TestEstimateBaselineMaxLabels(t *testing.T) {
	w := makeWorld(5000, 0.002, 3) // extreme skew: cannot converge quickly
	runner := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	rng := rand.New(rand.NewSource(4))
	cfg := Defaults()
	cfg.MaxLabels = 300
	res := EstimateBaseline(rng, runner, w.pairs, w.preds, cfg)
	if res.LabelsUsed > 300 {
		t.Errorf("labels used %d exceeds cap", res.LabelsUsed)
	}
}

func TestEstimateConvergesAndIsAccurate(t *testing.T) {
	w := makeWorld(6000, 0.01, 5) // skewed: reduction should kick in
	runner := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	rng := rand.New(rand.NewSource(6))
	res := Estimate(rng, runner, w.f, w.pairs, w.X, w.preds, w.known, Defaults())
	p, r := truePR(w)
	if math.Abs(res.Precision.Point-p) > 0.12 {
		t.Errorf("P estimate %v vs true %v", res.Precision.Point, p)
	}
	if math.Abs(res.Recall.Point-r) > 0.12 {
		t.Errorf("R estimate %v vs true %v", res.Recall.Point, r)
	}
	if res.Probes == 0 {
		t.Error("no probes recorded")
	}
	if res.FinalSetSize <= 0 || res.FinalSetSize > len(w.pairs) {
		t.Errorf("FinalSetSize = %d", res.FinalSetSize)
	}
}

func TestEstimateBeatsBaselineOnSkewedData(t *testing.T) {
	w := makeWorld(8000, 0.005, 7) // 0.5% positive density
	cfg := Defaults()
	cfg.MaxLabels = 6000

	runnerB := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	base := EstimateBaseline(rand.New(rand.NewSource(8)), runnerB, w.pairs, w.preds, cfg)

	runnerC := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	Estimate(rand.New(rand.NewSource(8)), runnerC, w.f, w.pairs, w.X, w.preds, w.known, cfg)
	ours := runnerC.Stats().Pairs

	if ours >= base.LabelsUsed {
		t.Errorf("Corleone estimator used %d labels, baseline %d — no savings",
			ours, base.LabelsUsed)
	}
}

func TestEstimateAppliesReductionRules(t *testing.T) {
	w := makeWorld(8000, 0.005, 9)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	rng := rand.New(rand.NewSource(10))
	res := Estimate(rng, runner, w.f, w.pairs, w.X, w.preds, w.known, Defaults())
	if len(res.RulesApplied) == 0 {
		t.Error("expected reduction rules on skewed data")
	}
	if res.FinalSetSize >= len(w.pairs) {
		t.Error("reduction did not shrink the set")
	}
	// The reduced set must retain essentially all true matches (rules are
	// negative and certified precise).
	// FinalSetSize counts survivors; matches live among them.
	if res.Recall.Point == 0 {
		t.Error("recall estimate collapsed — reduction likely ate the matches")
	}
}

func TestEstimateTinySet(t *testing.T) {
	w := makeWorld(60, 0.3, 11)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: w.truth}, 0.01)
	rng := rand.New(rand.NewSource(12))
	res := Estimate(rng, runner, w.f, w.pairs, w.X, w.preds, w.known, Defaults())
	// Exhausting a tiny set must give exact (zero-margin) estimates.
	if res.Precision.Margin > 0.05 || res.Recall.Margin > 0.05 {
		t.Errorf("margins on exhausted set: %v %v", res.Precision.Margin, res.Recall.Margin)
	}
	p, _ := truePR(w)
	if math.Abs(res.Precision.Point-p) > 0.05 {
		t.Errorf("P estimate %v vs true %v on exhausted set", res.Precision.Point, p)
	}
}

func TestPrfHelper(t *testing.T) {
	if iv := prf(5, 10, 0); iv.Point != 0.5 || iv.Margin <= 0 {
		t.Errorf("prf = %+v", iv)
	}
	if iv := prf(0, 0, 0); !math.IsInf(iv.Margin, 1) {
		t.Error("empty sample margin should be +Inf")
	}
}

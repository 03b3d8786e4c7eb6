package active

import (
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
)

// pool builds a candidate pool of n single-feature examples where x > 0.5
// means match, with the given match fraction, plus 2+2 seeds.
func pool(n int, matchFrac float64, seed int64) (pairs []record.Pair, X [][]float64,
	seeds []record.Labeled, seedX [][]float64, truth *record.GroundTruth) {

	rng := rand.New(rand.NewSource(seed))
	var matches []record.Pair
	for i := 0; i < n; i++ {
		p := record.P(i, i)
		pairs = append(pairs, p)
		if rng.Float64() < matchFrac {
			X = append(X, []float64{0.6 + 0.4*rng.Float64()})
			matches = append(matches, p)
		} else {
			X = append(X, []float64{0.5 * rng.Float64()})
		}
	}
	truth = record.NewGroundTruth(matches)
	seeds = []record.Labeled{
		{Pair: record.P(n, n), Match: true},
		{Pair: record.P(n+1, n+1), Match: true},
		{Pair: record.P(n+2, n+2), Match: false},
		{Pair: record.P(n+3, n+3), Match: false},
	}
	seedX = [][]float64{{0.9}, {0.8}, {0.1}, {0.2}}
	return
}

func TestLearnSeparablePool(t *testing.T) {
	pairs, X, seeds, seedX, truth := pool(2000, 0.05, 1)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	cfg := Defaults()
	cfg.Seed = 3
	res, err := Learn(runner, pairs, X, seeds, seedX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The learned forest should classify the pool nearly perfectly.
	errs := 0
	for i, v := range X {
		if res.Forest.Predict(v) != truth.Match(pairs[i]) {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(X)); frac > 0.02 {
		t.Errorf("pool error rate %.3f, want <= 0.02", frac)
	}
	if res.Trace.Reason == "" {
		t.Error("missing stop reason")
	}
	if res.Trace.Iterations < 1 {
		t.Error("no iterations recorded")
	}
	if len(res.Trace.Confidence) != res.Trace.Iterations {
		t.Error("confidence series length != iterations")
	}
	if len(res.Training) < len(seeds) {
		t.Error("training set lost the seeds")
	}
}

func TestLearnErrors(t *testing.T) {
	pairs, X, seeds, seedX, _ := pool(50, 0.1, 2)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: record.NewGroundTruth(nil)}, 0.01)
	if _, err := Learn(runner, pairs, X[:10], seeds, seedX, Defaults()); err == nil {
		t.Error("mismatched pairs/vectors should error")
	}
	if _, err := Learn(runner, pairs, X, nil, nil, Defaults()); err == nil {
		t.Error("missing seeds should error")
	}
}

func TestLearnStopEarly(t *testing.T) {
	pairs, X, seeds, seedX, truth := pool(2000, 0.05, 3)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	calls := 0
	runner.Stop = func() bool { calls++; return calls > 2 }
	res, err := Learn(runner, pairs, X, seeds, seedX, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Reason != StopBudget {
		t.Errorf("reason = %q, want %q", res.Trace.Reason, StopBudget)
	}
}

func TestLearnMaxIterations(t *testing.T) {
	pairs, X, seeds, seedX, truth := pool(5000, 0.5, 4)
	// A noisy crowd keeps confidence moving; a tiny cap forces the stop.
	runner := crowd.NewRunner(crowd.NewSimulated(truth, 0.4, 9), 0.01)
	cfg := Defaults()
	cfg.MaxIterations = 3
	cfg.NConverged = 1000
	cfg.NHigh = 1000
	cfg.NDegrade = 1000
	res, err := Learn(runner, pairs, X, seeds, seedX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Reason != StopMaxIterations {
		t.Errorf("reason = %q, want max-iterations", res.Trace.Reason)
	}
	if res.Trace.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", res.Trace.Iterations)
	}
}

func TestLearnPoolExhausted(t *testing.T) {
	pairs, X, seeds, seedX, truth := pool(30, 0.3, 5)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	cfg := Defaults()
	cfg.NConverged = 1000 // disable the other stops
	cfg.NHigh = 1000
	cfg.NDegrade = 1000
	res, err := Learn(runner, pairs, X, seeds, seedX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Reason != StopPoolExhausted && res.Trace.Reason != StopMaxIterations {
		t.Errorf("reason = %q, want pool-exhausted", res.Trace.Reason)
	}
}

func TestShouldStopNearAbsolute(t *testing.T) {
	cfg := Defaults()
	conf := []float64{0.5}
	for i := 0; i < 10; i++ {
		conf = append(conf, 0.997) // long high tail survives smoothing
	}
	reason, ok := shouldStop(conf, cfg)
	if !ok || reason != StopNearAbsolute {
		t.Errorf("got %q,%v want near-absolute", reason, ok)
	}
}

func TestShouldStopConverged(t *testing.T) {
	cfg := Defaults()
	conf := make([]float64, 25)
	for i := range conf {
		conf[i] = 0.8 // flat, but below 1-eps
	}
	reason, ok := shouldStop(conf, cfg)
	if !ok || reason != StopConverged {
		t.Errorf("got %q,%v want converged", reason, ok)
	}
	// A drifting series must not converge.
	for i := range conf {
		conf[i] = 0.5 + 0.02*float64(i)
	}
	if _, ok := shouldStop(conf, cfg); ok {
		t.Error("drifting series should not stop")
	}
}

func TestShouldStopDegrading(t *testing.T) {
	cfg := Defaults()
	cfg.NConverged = 1000 // isolate the degrading pattern
	cfg.NHigh = 1000
	var conf []float64
	for i := 0; i < 15; i++ {
		conf = append(conf, 0.5+0.027*float64(i)) // rise toward 0.88
	}
	for i := 0; i < 15; i++ {
		conf = append(conf, 0.4) // sharp collapse
	}
	reason, ok := shouldStop(conf, cfg)
	if !ok || reason != StopDegrading {
		t.Errorf("got %q,%v want degrading", reason, ok)
	}
}

func TestShouldStopTooShort(t *testing.T) {
	cfg := Defaults()
	if _, ok := shouldStop([]float64{0.5}, cfg); ok {
		t.Error("one value should never stop")
	}
}

func TestDegradingRollsBackToPeak(t *testing.T) {
	// Force the degrading pattern with a crowd that lies after a while:
	// easiest is to check PickedIteration <= Iterations when degrading.
	pairs, X, seeds, seedX, truth := pool(5000, 0.3, 6)
	runner := crowd.NewRunner(crowd.NewSimulated(truth, 0.35, 4), 0.01)
	cfg := Defaults()
	cfg.NConverged = 10000
	cfg.NHigh = 10000
	cfg.NDegrade = 8
	cfg.MaxIterations = 60
	res, err := Learn(runner, pairs, X, seeds, seedX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Reason == StopDegrading {
		if res.Trace.PickedIteration > res.Trace.Iterations {
			t.Error("picked iteration out of range")
		}
		peak := res.Trace.Smoothed[res.Trace.PickedIteration-1]
		for _, v := range res.Trace.Smoothed {
			if v > peak+1e-12 {
				t.Error("did not pick the smoothed-confidence peak")
				break
			}
		}
	}
}

func TestSelectBatchPrefersHighEntropy(t *testing.T) {
	pairs, X, seeds, seedX, truth := pool(500, 0.1, 7)
	_ = pairs
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	_ = runner
	// Train a forest on the seeds only; entropy is meaningful afterwards.
	// Use Learn for one iteration instead of exposing internals: just
	// verify the batch has no duplicates and respects q via the public
	// trace after a full run.
	res, err := Learn(crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01),
		pairs, X, seeds, seedX, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	seen := record.NewPairSet()
	for _, l := range res.Training {
		if seen.Has(l.Pair) {
			t.Fatalf("duplicate training example %v", l.Pair)
		}
		seen.Add(l.Pair)
	}
	_ = seedX
}

func TestStrategyString(t *testing.T) {
	if StrategyEntropy.String() != "entropy" || StrategyRandom.String() != "random" {
		t.Error("Strategy.String wrong")
	}
}

// TestRandomStrategyRuns exercises the ablation baseline end to end.
func TestRandomStrategyRuns(t *testing.T) {
	pairs, X, seeds, seedX, truth := pool(800, 0.1, 21)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	cfg := Defaults()
	cfg.Strategy = StrategyRandom
	cfg.Seed = 23
	res, err := Learn(runner, pairs, X, seeds, seedX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forest == nil || res.Trace.Iterations == 0 {
		t.Fatal("random strategy produced no model")
	}
	// Training examples must all come from the pool or seeds, no dupes.
	seen := record.NewPairSet()
	for _, l := range res.Training {
		if seen.Has(l.Pair) {
			t.Fatalf("duplicate %v", l.Pair)
		}
		seen.Add(l.Pair)
	}
}

// TestEntropyBeatsRandomOnSkew: with few labeling rounds on skewed data,
// entropy selection finds the boundary random sampling misses.
func TestEntropyBeatsRandomOnSkew(t *testing.T) {
	run := func(strat Strategy) float64 {
		pairs, X, seeds, seedX, truth := pool(6000, 0.01, 31)
		runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
		cfg := Defaults()
		cfg.Strategy = strat
		cfg.Seed = 33
		cfg.MaxIterations = 8
		cfg.NConverged = 1000 // same fixed budget for both
		cfg.NHigh = 1000
		cfg.NDegrade = 1000
		res, err := Learn(runner, pairs, X, seeds, seedX, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// F1 over the pool.
		var tp, pp, ap int
		for i, v := range X {
			pred := res.Forest.Predict(v)
			isPos := truth.Match(pairs[i])
			if pred {
				pp++
			}
			if isPos {
				ap++
			}
			if pred && isPos {
				tp++
			}
		}
		if pp == 0 || ap == 0 {
			return 0
		}
		p := float64(tp) / float64(pp)
		r := float64(tp) / float64(ap)
		if p+r == 0 {
			return 0
		}
		return 2 * p * r / (p + r)
	}
	fe, fr := run(StrategyEntropy), run(StrategyRandom)
	if fe < fr {
		t.Errorf("entropy F1 %.3f below random %.3f on skewed pool", fe, fr)
	}
}

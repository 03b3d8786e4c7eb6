package locator

import (
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
)

// build creates a candidate set with an "easy" region (x0 extreme) and a
// "difficult" band (x0 near 0.5), plus a forest trained to separate on x0.
func build(n int, seed int64) (pairs []record.Pair, X [][]float64,
	truth *record.GroundTruth, f *forest.Forest, known []record.Labeled,
	difficult map[record.Pair]bool) {

	rng := rand.New(rand.NewSource(seed))
	var matches []record.Pair
	difficult = map[record.Pair]bool{}
	for i := 0; i < n; i++ {
		p := record.P(i, i)
		pairs = append(pairs, p)
		r := rng.Float64()
		switch {
		case r < 0.05: // clear match
			X = append(X, []float64{0.6 + 0.4*rng.Float64()})
			matches = append(matches, p)
		case r < 0.15: // borderline band: half are matches
			X = append(X, []float64{0.45 + 0.1*rng.Float64()})
			difficult[p] = true
			if rng.Intn(2) == 0 {
				matches = append(matches, p)
			}
		default: // clear non-match
			X = append(X, []float64{0.4 * rng.Float64()})
		}
	}
	truth = record.NewGroundTruth(matches)
	// Train on clear examples only.
	var tx [][]float64
	var ty []bool
	// Training spans right up to the band edges so split thresholds land
	// near 0.5 instead of mid-gap.
	for i := 0; i < 300; i++ {
		pos := i%2 == 0
		if pos {
			tx = append(tx, []float64{0.55 + 0.45*rng.Float64()})
		} else {
			tx = append(tx, []float64{0.45 * rng.Float64()})
		}
		ty = append(ty, pos)
	}
	cfg := forest.Defaults()
	cfg.Seed = seed
	f = forest.Train(tx, ty, cfg)
	for i := 0; i < 30; i++ {
		known = append(known, record.Labeled{Pair: pairs[i], Match: truth.Match(pairs[i])})
	}
	return
}

func TestLocateFindsDifficultBand(t *testing.T) {
	pairs, X, truth, f, known, difficult := build(5000, 1)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	rng := rand.New(rand.NewSource(2))
	res := Locate(rng, runner, f, pairs, X, known, Defaults())
	if len(res.NegativeRules) == 0 && len(res.PositiveRules) == 0 {
		t.Fatal("no rules certified")
	}
	// The difficult set should be dominated by the borderline band.
	inBand := 0
	for _, di := range res.DifficultIdx {
		if difficult[pairs[di]] {
			inBand++
		}
	}
	if len(res.DifficultIdx) == 0 {
		t.Fatal("no difficult pairs located")
	}
	frac := float64(inBand) / float64(len(res.DifficultIdx))
	if frac < 0.4 {
		t.Errorf("only %.2f of difficult set is the borderline band", frac)
	}
}

func TestLocateTerminationSmallSet(t *testing.T) {
	pairs, X, truth, f, known, _ := build(300, 3)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	rng := rand.New(rand.NewSource(4))
	res := Locate(rng, runner, f, pairs, X, known, Defaults())
	if len(res.DifficultIdx) >= MinDifficult {
		t.Fatalf("%d difficult pairs of %d, want fewer than MinDifficult", len(res.DifficultIdx), len(pairs))
	}
	if res.Proceed || res.Reason != "difficult set too small" {
		t.Errorf("proceed %v, reason %q; want a stop because the difficult set is too small",
			res.Proceed, res.Reason)
	}
}

func TestLocateTerminationNoReduction(t *testing.T) {
	// A forest with no precise rules (random labels) covers nothing;
	// everything stays difficult -> "no significant reduction".
	rng := rand.New(rand.NewSource(5))
	var pairs []record.Pair
	var X [][]float64
	var matches []record.Pair
	for i := 0; i < 1000; i++ {
		p := record.P(i, i)
		pairs = append(pairs, p)
		X = append(X, []float64{rng.Float64()})
		if rng.Intn(2) == 0 {
			matches = append(matches, p) // label independent of feature
		}
	}
	truth := record.NewGroundTruth(matches)
	var tx [][]float64
	var ty []bool
	for i := 0; i < 200; i++ {
		tx = append(tx, []float64{rng.Float64()})
		ty = append(ty, rng.Intn(2) == 0)
	}
	fcfg := forest.Defaults()
	fcfg.Seed = 6
	f := forest.Train(tx, ty, fcfg)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	res := Locate(rand.New(rand.NewSource(7)), runner, f, pairs, X, nil, Defaults())
	// On unlearnable data, certification must reject nearly every rule:
	// only tiny exhaustively-verified lucky rules can pass, so the bulk of
	// the set stays difficult.
	if got := len(res.DifficultIdx); got < len(pairs)/2 {
		t.Errorf("only %d of %d pairs remain difficult on random labels", got, len(pairs))
	}
}

func TestLocateProceedPath(t *testing.T) {
	pairs, X, truth, f, known, _ := build(5000, 8)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	res := Locate(rand.New(rand.NewSource(9)), runner, f, pairs, X, known, Defaults())
	if !res.Proceed {
		t.Errorf("expected Proceed, got reason %q (|difficult|=%d of %d)",
			res.Reason, len(res.DifficultIdx), len(pairs))
	}
}

package estimator

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/stats"
)

// TestEstimatePinned pins Estimate and EstimateBaseline to literals
// recorded before the estimator's tallies were restructured. Each world
// (three densities, two seeds) gets a matcher that errs on 0.5% of its
// predictions and a crowd that errs on 15% of its answers, so precision
// and recall both fall below 1 and some probes choose no rule; seed 2 also
// caps the labels at 1,000. Per world it hashes every field of each Result,
// intervals and F1 by their bits, together with the crowd spend. A
// legitimate output change updates the literals and says so in CHANGES.md.
func TestEstimatePinned(t *testing.T) {
	cases := []struct {
		density float64
		seed    int64
		want    string
	}{
		{0.002, 1, `est=0a5a05491299c411 base=cd30744b72960dab`},
		{0.002, 2, `est=bdd4a847c6bee3a2 base=ab81e82ac6339142`},
		{0.02, 1, `est=5124064b20894687 base=ba6995c9920576e3`},
		{0.02, 2, `est=784bae769fa14ee2 base=e3632977c873d64c`},
		{0.2, 1, `est=9a9ee340b9e8942b base=0a06f78be38d0516`},
		{0.2, 2, `est=fa83b630e803c173 base=b031d05bf18fb9b7`},
	}
	for _, tc := range cases {
		w := makeWorld(8000, tc.density, tc.seed)
		flip := rand.New(rand.NewSource(tc.seed))
		for i := range w.preds {
			if flip.Float64() < 0.005 {
				w.preds[i] = !w.preds[i]
			}
		}
		cfg := Defaults()
		if tc.seed == 2 {
			cfg.MaxLabels = 1000
		}
		run := func(estimate func(*rand.Rand, *crowd.Runner) *Result) uint64 {
			runner := crowd.NewRunner(crowd.NewSimulated(w.truth, 0.15, tc.seed), 0.01)
			res := estimate(rand.New(rand.NewSource(tc.seed+100)), runner)
			h := fnv.New64a()
			pinResult(h, res)
			fmt.Fprintf(h, "%+v", runner.Stats())
			return h.Sum64()
		}
		est := run(func(rng *rand.Rand, r *crowd.Runner) *Result {
			return Estimate(rng, r, w.f, w.pairs, w.X, w.preds, w.known, cfg)
		})
		base := run(func(rng *rand.Rand, r *crowd.Runner) *Result {
			return EstimateBaseline(rng, r, w.pairs, w.preds, cfg)
		})
		if got := fmt.Sprintf("est=%016x base=%016x", est, base); got != tc.want {
			t.Errorf("density %v seed %d moved\n got: %s\nwant: %s", tc.density, tc.seed, got, tc.want)
		}
	}
}

func pinResult(h hash.Hash64, r *Result) {
	iv := func(iv stats.Interval) string {
		return fmt.Sprintf("%x/%x", math.Float64bits(iv.Point), math.Float64bits(iv.Margin))
	}
	fmt.Fprintf(h, "P=%s R=%s F1=%x labels=%d evaluated=%d final=%d probes=%d\n",
		iv(r.Precision), iv(r.Recall), math.Float64bits(r.F1), r.LabelsUsed, r.RulesEvaluated, r.FinalSetSize, r.Probes)
	for _, s := range r.Trace {
		fmt.Fprintf(h, "step %d %x %d %d %x %x\n", s.Alive, math.Float64bits(s.Density), s.ChoseRules, s.RulesKept,
			math.Float64bits(s.PMargin), math.Float64bits(s.RMargin))
	}
	for _, rule := range r.RulesApplied {
		fmt.Fprintf(h, "rule %v %d %d:", rule.Positive, rule.LeafPos, rule.LeafNeg)
		for _, p := range rule.Preds {
			fmt.Fprintf(h, " %d %d %x", p.Feature, p.Op, math.Float64bits(p.Threshold))
		}
		fmt.Fprintln(h)
	}
}

package estimator

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
	"github.com/corleone-em/corleone/internal/stats"
)

var sinkChoice []int

// BenchmarkChooseOption measures one §6.2 plan choice at the start of
// estimation on Restaurants×1.0: every row of the 176k-pair candidate set
// alive, no rule used yet, the negative rules of a forest trained on the
// set (the true matches plus every 200th pair) ranked as Estimate ranks
// them.
func BenchmarkChooseOption(b *testing.B) {
	ds := datagen.Generate(datagen.RestaurantsPaper)
	var pairs []record.Pair
	for a := 0; a < ds.A.Len(); a++ {
		for bb := 0; bb < ds.B.Len(); bb++ {
			pairs = append(pairs, record.P(a, bb))
		}
	}
	X := feature.NewExtractor(ds).Vectors(pairs)
	var trainX [][]float64
	var trainY []bool
	for i, p := range pairs {
		if m := ds.Truth.Match(p); m || i%200 == 0 {
			trainX, trainY = append(trainX, X[i]), append(trainY, m)
		}
	}
	neg, _ := forest.Train(trainX, trainY, forest.Defaults()).Rules()
	all := ruleeval.MakeCandidates(neg, X)
	cands := ruleeval.SelectTopK(all, ruleeval.Contradicting(pairs, nil, true), len(all))
	used := make([]bool, len(cands))
	alive := ruleeval.FullRowSet(len(pairs))
	density := float64(ds.Truth.NumMatches()) / float64(len(pairs))
	rIv := stats.Interval{Point: 0.9, Margin: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkChoice = chooseOption(cands, used, alive, density, rIv)
	}
	b.ReportMetric(float64(len(cands)), "rules/op")
}

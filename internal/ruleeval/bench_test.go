package ruleeval

import (
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
)

// restaurantsFixture is the post-blocking state of a Restaurants×1.0 run —
// the 176k-pair candidate set, its feature matrix, and a
// forest trained on it (the true matches plus every 200th pair) — so each
// layer's number can be reproduced without the traced end-to-end run.
func restaurantsFixture(b *testing.B) (ds *record.Dataset, pairs []record.Pair, X [][]float64, f *forest.Forest) {
	b.Helper()
	ds = datagen.Generate(datagen.RestaurantsPaper)
	for a := 0; a < ds.A.Len(); a++ {
		for bb := 0; bb < ds.B.Len(); bb++ {
			pairs = append(pairs, record.P(a, bb))
		}
	}
	X = feature.NewExtractor(ds).Vectors(pairs)
	var trainX [][]float64
	var trainY []bool
	for i, p := range pairs {
		if m := ds.Truth.Match(p); m || i%200 == 0 {
			trainX, trainY = append(trainX, X[i]), append(trainY, m)
		}
	}
	return ds, pairs, X, forest.Train(trainX, trainY, forest.Defaults())
}

var sinkCands []Candidate

func BenchmarkMakeCandidates(b *testing.B) {
	_, _, X, f := restaurantsFixture(b)
	neg, _ := f.Rules()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCands = MakeCandidates(neg, X)
	}
	b.ReportMetric(float64(len(neg)), "rules/op")
}

// BenchmarkCover is the leaf walk over the same forest and rows; it fills
// the positive rules' coverages and the votes too.
func BenchmarkCover(b *testing.B) {
	_, _, X, f := restaurantsFixture(b)
	var pos []Candidate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCands, pos, _ = CoverByLeaf(f, X)
	}
	b.ReportMetric(float64(len(sinkCands)+len(pos)), "rules/op")
}

// BenchmarkEvaluateJoint certifies the top 20 rules against an oracle crowd,
// the call the locator makes twice and the estimator once per reduction.
func BenchmarkEvaluateJoint(b *testing.B) {
	ds, pairs, X, f := restaurantsFixture(b)
	neg, _ := f.Rules()
	top := SelectTopK(MakeCandidates(neg, X), Contradicting(pairs, nil, true), 20)
	var res []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := crowd.NewRunner(&crowd.Oracle{Truth: ds.Truth}, 0.01)
		res = EvaluateJoint(rand.New(rand.NewSource(1)), runner, pairs, top, Defaults())
	}
	b.ReportMetric(float64(len(res)), "rules/op")
}

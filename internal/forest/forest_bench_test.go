package forest

import (
	"testing"

	"github.com/corleone-em/corleone/internal/par"
)

var sinkForest *Forest

// BenchmarkTrain measures the shipping path: per-tree seeds drawn up front,
// trees grown concurrently.
func BenchmarkTrain(b *testing.B) {
	X, y := randomTraining(3, 2000, 15)
	cfg := Defaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkForest = Train(X, y, cfg)
	}
}

var sinkFloat float64

// BenchmarkMeanConfidence measures monitoring-set scoring through a reused
// Scorer, the per-iteration cost of the §5.3 stopping check. Zero-alloc in
// steady state at GOMAXPROCS=1.
func BenchmarkMeanConfidence(b *testing.B) {
	X, y := randomTraining(3, 1000, 15)
	f := Train(X, y, Defaults())
	V, _ := randomTraining(5, 5000, 15)
	sc := NewScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = sc.MeanConfidence(f, V)
	}
}

// BenchmarkScorePerVector measures the retained pre-SoA scoring reference —
// the shipping Confidences path this PR replaced, reproduced faithfully:
// a fresh output slice and par.For closure per call, pointer-tree
// traversal one vector at a time, entropy recomputed through math.Log.
func BenchmarkScorePerVector(b *testing.B) {
	X, y := randomTraining(3, 1000, 15)
	trees := trainSerialTrees(X, y, Defaults())
	V, _ := randomTraining(5, 5000, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]float64, len(V))
		par.For(len(V), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				_, _, conf := referenceScores(trees, V[j])
				out[j] = conf
			}
		})
		sinkFloat = out[0]
	}
}

// BenchmarkScoreBatched measures the shipping path over the same pool: SoA
// arrays, tree-major blocked traversal, table-lookup confidences, reused
// Scorer buffers.
func BenchmarkScoreBatched(b *testing.B) {
	X, y := randomTraining(3, 1000, 15)
	f := Train(X, y, Defaults())
	V, _ := randomTraining(5, 5000, 15)
	sc := NewScorer()
	out := make([]float64, len(V))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ConfidencesInto(f, V, out)
		sinkFloat = out[0]
	}
}

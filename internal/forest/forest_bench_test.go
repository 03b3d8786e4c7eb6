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

// BenchmarkScorePerVector measures the retained pre-SoA scoring reference,
// reproduced faithfully: a fresh output slice and par.For closure per call,
// pointer-tree traversal one vector at a time, entropy recomputed through
// math.Log.
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

// BenchmarkScore measures the shipping path — SoA arrays, one scalar walk,
// table-lookup confidences, reused Scorer buffers — per vector scored.
// uniform is the synthetic pool of BenchmarkScorePerVector (values in
// [0, 1), no feature.Missing: traffic no run produces, kept so its number
// stays comparable across commits); restaurants and products are
// vectorised candidate sets with forests trained on a noisily labeled
// slice of them (realPool).
func BenchmarkScore(b *testing.B) {
	pools := []struct {
		name string
		pool func() (V, X [][]float64, y []bool)
	}{
		{"uniform", func() (V, X [][]float64, y []bool) {
			X, y = randomTraining(3, 1000, 15)
			V, _ = randomTraining(5, 5000, 15)
			return V, X, y
		}},
		{"restaurants", func() (V, X [][]float64, y []bool) { return realPool("restaurants", 0.3) }},
		{"products", func() (V, X [][]float64, y []bool) { return realPool("products", 0.05) }},
	}
	for _, p := range pools {
		b.Run(p.name, func(b *testing.B) {
			V, X, y := p.pool()
			f := Train(X, y, Defaults())
			sc := NewScorer()
			out := make([]float64, len(V))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.ConfidencesInto(f, V, out)
				sinkFloat = out[0]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(V)), "ns/vector")
		})
	}
}

package feature

import (
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
)

func benchPairs(ds *record.Dataset, n int) []record.Pair {
	rng := rand.New(rand.NewSource(7))
	pairs := make([]record.Pair, n)
	for i := range pairs {
		pairs[i] = record.P(rng.Intn(ds.A.Len()), rng.Intn(ds.B.Len()))
	}
	return pairs
}

var sinkRows [][]float64

// BenchmarkVectors measures the parallel vectorisation of a 2000-pair batch.
func BenchmarkVectors(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.02))
	ex := NewExtractor(ds)
	pairs := benchPairs(ds, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows = ex.Vectors(pairs)
	}
	b.ReportMetric(float64(len(pairs)), "pairs/op")
}

// BenchmarkNewExtractor measures the one-time profile construction cost that
// the per-pair arithmetic is paid for with.
func BenchmarkNewExtractor(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.02))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExtractor(ds)
		sinkRows = [][]float64{ex.Vector(record.P(0, 0))}
	}
}

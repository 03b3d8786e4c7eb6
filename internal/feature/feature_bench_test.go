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

// BenchmarkVectors measures the parallel vectorisation of a batch on the
// benchmark's three dataset shapes: all of Restaurants×1.0's A×B (what
// rest-match vectorises), and a 200k-pair seeded sample of Citations×0.1 and
// of Products×0.2 (the size of the blocker's sample S). Every iteration
// builds its own extractor, so dictionary construction and the filling of
// the write-once tables are inside the figure, as they are inside a run.
func BenchmarkVectors(b *testing.B) {
	for _, c := range []struct {
		name    string
		dataset string
		scale   float64
		sample  int // 0: all of A×B
	}{
		{"restaurants-full", "restaurants", 1.0, 0},
		{"citations-sample", "citations", 0.1, 200000},
		{"products-sample", "products", 0.2, 200000},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.DatasetFor(c.dataset, c.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			var pairs []record.Pair
			if c.sample > 0 {
				pairs = benchPairs(ds, c.sample)
			} else {
				for i := 0; i < ds.A.Len(); i++ {
					for j := 0; j < ds.B.Len(); j++ {
						pairs = append(pairs, record.P(i, j))
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRows = NewExtractor(ds).Vectors(pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/pair")
		})
	}
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

package feature

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
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
// the per-pair arithmetic is paid for with, on the benchmark workloads'
// tables: Citations×0.15 (cit-index, where the build is the largest layer),
// Citations×0.1 (cit-scan), Products×0.2 (prod-learn) and Restaurants×1.0
// (rest-match). ns/row divides by the rows of both tables.
func BenchmarkNewExtractor(b *testing.B) {
	for _, c := range []struct {
		name    string
		dataset string
		scale   float64
	}{
		{"citations-0.15", "citations", 0.15},
		{"citations-0.1", "citations", 0.1},
		{"products-0.2", "products", 0.2},
		{"restaurants-1.0", "restaurants", 1.0},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.DatasetFor(c.dataset, c.scale, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := NewExtractor(ds)
				sinkRows = [][]float64{ex.Vector(record.P(0, 0))}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.A.Len()+ds.B.Len()), "ns/row")
		})
	}
}

// BenchmarkColumn measures one column kernel per measure kind on
// Citations×0.1: every row of table A against all of table B (1.68M pairs
// an iteration), postings built before the clock starts. title is the text
// column, whose three measures share a view (each sub-benchmark walks it for
// itself: one feature per row defeats the shared walk); authors is the
// string column with the long 3-gram sets, and the one the edit column's
// texts come from.
func BenchmarkColumn(b *testing.B) {
	ds, err := datagen.DatasetFor("citations", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExtractor(ds)
	for _, name := range []string{"title_jaccard_w", "title_overlap_w", "title_tfidf_cos", "authors_jaccard_3g", "authors_edit"} {
		f := slices.Index(ex.Names(), name)
		kind := ex.features[f].Kind
		b.Run(kind, func(b *testing.B) {
			run := ex.NewRun(nil)
			if !run.HasColumn(f) {
				b.Fatalf("%s has no column over %d rows", name, ds.B.Len())
			}
			rs := RunScratch{Pair: similarity.NewScratch()}
			dst := make([]float64, ds.B.Len())
			run.Column(f, 0, dst, 1, &rs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for a := 0; a < ds.A.Len(); a++ {
					run.Column(f, int32(a), dst, 1, &rs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.A.Len()*ds.B.Len()), "ns/pair")
		})
	}
}

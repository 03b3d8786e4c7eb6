package shard

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/tree"
)

var sinkSurvivors int

// BenchmarkScanVerifier measures the exhaustive scan's inner loop — one
// Verifier per worker over every cell of A×B — on Products×0.2 (2.25M pairs)
// under the kind of rule set the blocker selects there: predicates on the
// eight-value category column, with a text predicate behind them. Every
// iteration builds its own extractor, so filling the write-once tables is
// inside the figure.
func BenchmarkScanVerifier(b *testing.B) {
	b.Run("products", func(b *testing.B) {
		ds, err := datagen.DatasetFor("products", 0.2, 1)
		if err != nil {
			b.Fatal(err)
		}
		feat := map[string]int{}
		for i, n := range feature.NewExtractor(ds).Names() {
			feat[n] = i
		}
		le := func(name string, thr float64) tree.Predicate {
			f, ok := feat[name]
			if !ok {
				b.Fatalf("no feature %s", name)
			}
			return tree.Predicate{Feature: f, Op: tree.LE, Threshold: thr}
		}
		rules := []tree.Rule{
			{Preds: []tree.Predicate{le("category_exact", 0.5), le("description_jaccard_w", 0.05)}},
			{Preds: []tree.Predicate{le("category_jaro_winkler", 0.6), le("brand_exact", 0.5)}},
			{Preds: []tree.Predicate{le("category_jaccard_3g", 0.3), le("description_jaccard_w", -0.5)}},
		}
		nA, nB := ds.A.Len(), ds.B.Len()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex := feature.NewExtractor(ds)
			counts := make([]int, nA)
			par.For(nA, func(lo, hi int) {
				v := NewVerifier(ex, rules)
				for a := lo; a < hi; a++ {
					for c := 0; c < nB; c++ {
						if v.Survives(record.P(a, c)) {
							counts[a]++
						}
					}
				}
			})
			sinkSurvivors = 0
			for _, n := range counts {
				sinkSurvivors += n
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nA*nB), "ns/pair")
	})
}

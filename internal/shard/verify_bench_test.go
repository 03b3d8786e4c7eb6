package shard

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

var sinkSurvivors int

// BenchmarkScanVerifier measures the exhaustive scan's inner loop — one
// Verifier per worker, one row of table A at a time against all of table B —
// under the kinds of rule set the blocker selects. products: Products×0.2
// (2.25M pairs), predicates on the eight-value category column, served by
// its value-pair table, with a text predicate behind them. citations-sets:
// Citations×0.1 (1.68M pairs), one rule of set predicates that holds on
// nearly every pair, so each row reads all three from columns.
// citations-edit: the same data under the shape of rule the cit-scan seeds
// learn — an edit and a Jaro-Winkler predicate on authors behind a set
// predicate. citations-probe: the first rule again, verified the way the
// index path does it — prober.run over four shards, every row's
// title_jaccard_w > 0.1 candidates as a position list of its shard's run.
// Every iteration builds its own extractor, so filling the write-once tables
// and building the runs' views are inside the figure.
func BenchmarkScanVerifier(b *testing.B) {
	type pred struct {
		name string
		thr  float64
	}
	for _, c := range []struct {
		name, dataset string
		scale         float64
		rules         [][]pred
	}{
		{"products", "products", 0.2, [][]pred{
			{{"category_exact", 0.5}, {"description_jaccard_w", 0.05}},
			{{"category_jaro_winkler", 0.6}, {"brand_exact", 0.5}},
			{{"category_jaccard_3g", 0.3}, {"description_jaccard_w", -0.5}},
		}},
		{"citations-sets", "citations", 0.1, [][]pred{
			{{"title_jaccard_w", 0.45}, {"title_tfidf_cos", 0.4}, {"authors_jaccard_3g", 0.3}},
		}},
		{"citations-edit", "citations", 0.1, [][]pred{
			{{"title_jaccard_w", 0.45}, {"authors_jaro_winkler", 0.72}, {"authors_edit", 0.47}},
		}},
		{"citations-probe", "citations", 0.1, [][]pred{
			{{"title_jaccard_w", 0.45}, {"title_tfidf_cos", 0.4}, {"authors_jaccard_3g", 0.3}},
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.DatasetFor(c.dataset, c.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			feat := map[string]int{}
			for i, n := range feature.NewExtractor(ds).Names() {
				feat[n] = i
			}
			var rules []tree.Rule
			for _, preds := range c.rules {
				var r tree.Rule
				for _, p := range preds {
					f, ok := feat[p.name]
					if !ok {
						b.Fatalf("no feature %s", p.name)
					}
					r.Preds = append(r.Preds, tree.Predicate{Feature: f, Op: tree.LE, Threshold: p.thr})
				}
				rules = append(rules, r)
			}
			nA, nB := ds.A.Len(), ds.B.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := feature.NewExtractor(ds)
				if c.name == "citations-probe" {
					const k, theta = 4, 0.1
					profA, profB := ex.Profiles(feat["title_jaccard_w"])
					group := BuildGroup(simindex.JaccardWords, profB, k)
					runs := make([]*feature.Run, k)
					for s := range runs {
						runs[s] = group.Shard(s).NewRun(ex)
					}
					counts := make([]int, nA)
					par.For(nA, func(lo, hi int) {
						p := newProber(ex, rules, 1)
						for a := lo; a < hi; a++ {
							for s := 0; s < k; s++ {
								out, _ := p.run(group.Shard(s), runs[s], [][]*similarity.Profile{profA}, []float64{theta},
									Task{Shard: s, Shards: k, ALo: int32(a), AHi: int32(a + 1)})
								counts[a] += len(out)
							}
						}
					})
					sinkSurvivors = 0
					for _, n := range counts {
						sinkSurvivors += n
					}
					continue
				}
				run := ex.NewRun(nil)
				counts := make([]int, nA)
				par.For(nA, func(lo, hi int) {
					v := NewVerifier(ex, rules)
					var row []record.Pair
					for a := lo; a < hi; a++ {
						row = v.RowSurvivors(row[:0], int32(a), run, run.Positions())
						counts[a] = len(row)
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
}

package blocker

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/tree"
)

func benchRules(b *testing.B, ex *feature.Extractor) []tree.Rule {
	b.Helper()
	ti, yi := -1, -1
	for i, n := range ex.Names() {
		switch n {
		case "title_jaccard_w":
			ti = i
		case "year_rel_diff":
			yi = i
		}
	}
	if ti < 0 || yi < 0 {
		b.Fatal("expected Citations features not found")
	}
	return []tree.Rule{
		{Preds: []tree.Predicate{{Feature: ti, Op: tree.LE, Threshold: 0.2}}},
		{Preds: []tree.Predicate{
			{Feature: ti, Op: tree.LE, Threshold: 0.4},
			{Feature: yi, Op: tree.LE, Threshold: 0.5},
		}},
	}
}

var sinkPairs []record.Pair

// BenchmarkApplyRules measures the exhaustive scan: profile-backed features
// with per-worker scratch buffers, every A×B cell visited. It is pinned to
// applyRulesScanTo (not the planner) so it stays the baseline the probe
// path is compared against.
func BenchmarkApplyRules(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.015))
	ex := feature.NewExtractor(ds)
	rules := benchRules(b, ex)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = sinkPairs[:0]
		applyRulesScanTo(ds, ex, rules, collectSink(&sinkPairs))
	}
	b.ReportMetric(float64(ds.CartesianSize()), "pairs/op")
}

// BenchmarkApplyRulesIndexed measures the planner's probe path (one shard)
// on the same dataset and rules: candidates come from the inverted index
// over the title_jaccard_w anchor (θ = 0.2) instead of the full scan, then
// verify against all rules. Output is bit-identical to BenchmarkApplyRules
// (pinned by TestApplyRulesEquivalence); only the visited-pair count drops.
func BenchmarkApplyRulesIndexed(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.015))
	ex := feature.NewExtractor(ds)
	rules := benchRules(b, ex)
	if !planRules(ex, rules).Indexed {
		b.Fatal("bench rules should be index-friendly")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = applyRules(ds, ex, rules)
	}
	b.ReportMetric(float64(ds.CartesianSize()), "pairs/op")
}

// BenchmarkApplyRulesIndexedSelective measures the indexed path where it
// shines: a tight anchor (θ = 0.8) leaves few candidates, so nearly the
// whole Cartesian product is pruned by the index filters alone.
func BenchmarkApplyRulesIndexedSelective(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.015))
	ex := feature.NewExtractor(ds)
	base := benchRules(b, ex)
	rules := []tree.Rule{
		{Preds: []tree.Predicate{{Feature: base[0].Preds[0].Feature, Op: tree.LE, Threshold: 0.8}}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = applyRules(ds, ex, rules)
	}
	b.ReportMetric(float64(ds.CartesianSize()), "pairs/op")
}

var sinkInt int

// BenchmarkUmbrellaMaterialized measures the memory cost of materializing
// the untriggered-blocking umbrella set (the full Cartesian product) the
// way downstream consumers receive it without a sink: one slice holding
// every pair at once.
func BenchmarkUmbrellaMaterialized(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = len(allPairs(ds))
	}
	b.ReportMetric(float64(ds.CartesianSize()), "pairs/op")
}

// BenchmarkUmbrellaStreaming measures the same pair stream consumed through
// the chunked sink: peak memory is one block buffer regardless of |A×B|,
// which is the bytes/op contrast with BenchmarkUmbrellaMaterialized.
func BenchmarkUmbrellaStreaming(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		emitAllPairs(ds, func(chunk []record.Pair) { n += len(chunk) })
		sinkInt = n
	}
	b.ReportMetric(float64(ds.CartesianSize()), "pairs/op")
}

// BenchmarkApplyRulesUnion measures the planner end to end — anchor choice,
// estimate, index build, union probes, verification — on rule sets the
// default benchmark instances select (measuredRuleSets), at those instances'
// scales. Every iteration plans and builds its indexes afresh, as a job does.
// BenchmarkApplyRulesUnionScan is the same rule sets through the exhaustive
// scan, the path they took before union anchors.
func BenchmarkApplyRulesUnion(b *testing.B) { benchUnion(b, false) }

func BenchmarkApplyRulesUnionScan(b *testing.B) { benchUnion(b, true) }

func benchUnion(b *testing.B, scan bool) {
	for _, c := range []struct {
		name    string
		profile datagen.Profile
		scale   float64
	}{
		{"products-band", datagen.ProductsPaper, 0.2},
		{"products-band+3g", datagen.ProductsPaper, 0.2},
		{"citations-venue", datagen.CitationsPaper, 0.1},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := datagen.Generate(datagen.Scaled(c.profile, c.scale))
			ex := feature.NewExtractor(ds)
			rules := measuredRules(ex, c.name)
			if !planRules(ex, rules).Indexed {
				b.Fatal("measured rule set should plan index probes")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh extractor per iteration: its write-once value-pair
				// tables would otherwise hand every later iteration the
				// first one's similarities for free, which no job gets.
				b.StopTimer()
				ex = feature.NewExtractor(ds)
				b.StartTimer()
				sinkPairs = sinkPairs[:0]
				if scan {
					applyRulesScanTo(ds, ex, rules, collectSink(&sinkPairs))
				} else if _, err := applyRulesTo(ds, ex, rules, execConfig{}, collectSink(&sinkPairs)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.CartesianSize()), "ns/pair")
		})
	}
}

// BenchmarkApplyRulesScan measures the exhaustive scan on the rule sets that
// force it (scanRuleSets), at the instances' own scale and dataset, where
// the verifier's bounds decide most edit and Jaro-Winkler predicates. Every
// iteration gets a fresh extractor, as in benchUnion, so no iteration is
// handed an earlier one's bags or table cells.
func BenchmarkApplyRulesScan(b *testing.B) {
	for _, set := range scanRuleSets {
		b.Run(set.name, func(b *testing.B) {
			p := datagen.Scaled(datagen.CitationsPaper, 0.1)
			p.Seed = datagen.CitationsPaper.Seed + set.seed
			ds := datagen.Generate(p)
			rules := parseRules(feature.NewExtractor(ds), set.rules)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ex := feature.NewExtractor(ds)
				b.StartTimer()
				sinkPairs = sinkPairs[:0]
				applyRulesScanTo(ds, ex, rules, collectSink(&sinkPairs))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.CartesianSize()), "ns/pair")
		})
	}
}

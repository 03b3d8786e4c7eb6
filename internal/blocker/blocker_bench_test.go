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
	if !planRules(ex, rules).indexed {
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

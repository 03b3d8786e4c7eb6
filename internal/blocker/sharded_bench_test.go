package blocker

// Sharded-blocking benchmarks: the K=4 probe strategy under 1/2/4/8
// coordinator workers against K=1 on the same dataset and rules. Besides
// ns/op, each run reports the largest per-shard index footprint
// ("shard-peak-B") — the bytes one worker process must hold, the number
// that shrinks as K grows and makes scale-out viable. On a 1-CPU box the
// worker sweep measures coordination overhead, not parallel speedup.

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/shard"
)

func benchSharded(b *testing.B, k, workers int) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.015))
	ex := feature.NewExtractor(ds)
	rules := benchRules(b, ex)
	p := planRules(ex, rules)
	if !p.Indexed {
		b.Fatal("bench rules should anchor an index")
	}
	_, profB := ex.Profiles(p.probes[0].Feature)
	group := shard.BuildGroup(p.kinds[0], profB, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = sinkPairs[:0]
		if _, err := applyRulesTo(ds, ex, rules,
			execConfig{shards: k, workers: workers}, collectSink(&sinkPairs)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(group.MaxShardFootprint()), "shard-peak-B")
	b.ReportMetric(float64(ds.CartesianSize()), "pairs/op")
}

// BenchmarkShardedBlockingK1 is the scale-out baseline: the same planner
// invocation at one shard, coordinator width left at GOMAXPROCS (workers 1
// would serialise the probes the K=4 sweep is compared against).
func BenchmarkShardedBlockingK1(b *testing.B) { benchSharded(b, 1, 0) }

func BenchmarkShardedBlockingW1(b *testing.B) { benchSharded(b, 4, 1) }
func BenchmarkShardedBlockingW2(b *testing.B) { benchSharded(b, 4, 2) }
func BenchmarkShardedBlockingW4(b *testing.B) { benchSharded(b, 4, 4) }
func BenchmarkShardedBlockingW8(b *testing.B) { benchSharded(b, 4, 8) }

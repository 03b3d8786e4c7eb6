package blocker

// The scale-1m run: the full synthetic 10^6-records-per-side profile
// pushed end-to-end through the sharded planner. Generating the tables,
// profiling two million records, and probing the shard indexes takes
// minutes and gigabytes, so the test is gated behind CORLEONE_SCALE1M=1
// (see EXPERIMENTS.md §scale-1m); CI and tier-1 runs skip it.

import (
	"os"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/tree"
)

func TestScale1MSharded(t *testing.T) {
	if os.Getenv("CORLEONE_SCALE1M") == "" {
		t.Skip("set CORLEONE_SCALE1M=1 to run the full-scale sharded blocking test")
	}
	ds, err := datagen.DatasetFor("scale-1m", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dataset: |A|=%d |B|=%d", ds.A.Len(), ds.B.Len())
	ex := feature.NewExtractor(ds)
	jw := featureByKind(ex, "jaccard_w")
	if jw < 0 {
		t.Fatal("no jaccard_w feature")
	}
	// A selective anchor (θ = 0.8): at 10^6 records per side anything
	// looser would emit a survivor set no machine holds.
	rules := []tree.Rule{le(jw, 0.8)}
	p := planRules(ex, rules)
	if !p.Indexed {
		t.Fatal("rule should anchor an index")
	}

	// Bounded per-shard memory: record-id sharding is hash-uniform, so the
	// largest shard index must stay close to an even 1/K split of the
	// total. Factor 2 is a generous skew allowance.
	const k = 8
	_, profB := ex.Profiles(p.probes[0].Feature)
	group := shard.BuildGroup(p.kinds[0], profB, k)
	maxFp, totalFp := group.MaxShardFootprint(), int64(0)
	for s := 0; s < group.K(); s++ {
		totalFp += group.Shard(s).Footprint()
	}
	t.Logf("K=%d: per-shard peak %d bytes, total %d bytes", k, maxFp, totalFp)
	if maxFp > 2*totalFp/int64(k) {
		t.Errorf("per-shard peak %d bytes exceeds 2x the even split of %d", maxFp, totalFp/int64(k))
	}

	profA, _ := ex.Profiles(p.probes[0].Feature)
	exec := shard.NewLocalExecutor(ex, group, profA, rules, p.probes[0].Theta)
	survivors := 0
	err = applyRulesShardedTo(ds, ex, rules, p, k,
		execConfig{workers: 4, exec: exec},
		func(chunk []record.Pair) { survivors += len(chunk) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sharded blocking survivors: %d of %d", survivors, ds.CartesianSize())
	if survivors == 0 {
		t.Error("blocking emitted no survivors; the umbrella set would be empty")
	}
}

package blocker

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/tree"
)

// TestShardedBlockingEquivalence pins the tentpole invariant: the shard-probe
// strategy emits a byte-identical umbrella stream to the sequential
// exhaustive scan — same survivors, same (a, b) order — across
// K ∈ {1, 2, 3, 8} (K=1 runs through the same coordinator as every other
// K) and GOMAXPROCS ∈ {1, 4}, on two datasets and two rule shapes, with
// exactly the task grid dispatched and nothing retried; then for the union
// anchors the benchmark instances learn. The remote executor's stream is
// pinned against the in-process one in package shard
// (TestShardedRemoteTransportEquivalence).
func TestShardedBlockingEquivalence(t *testing.T) {
	datasets := []struct {
		name string
		ds   *record.Dataset
	}{
		{"Citations", datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))},
		{"Scale1M-small", datagen.Generate(datagen.Scaled(datagen.Scale1M, 0.0004))},
	}
	for _, d := range datasets {
		ex := feature.NewExtractor(d.ds)
		jw := featureByKind(ex, "jaccard_w")
		if jw < 0 {
			t.Fatalf("%s: no jaccard_w feature", d.name)
		}
		ruleSets := [][]tree.Rule{
			{le(jw, 0.3)},
			{le(jw, 0.5), {Preds: []tree.Predicate{
				{Feature: jw, Op: tree.LE, Threshold: 0.8},
			}}},
		}
		for ri, rules := range ruleSets {
			want := applyRulesRef(d.ds, ex, rules)
			for _, k := range []int{1, 2, 3, 8} {
				for _, procs := range []int{1, 4} {
					prev := runtime.GOMAXPROCS(procs)
					var stats shard.Stats
					var got []record.Pair
					_, err := applyRulesTo(d.ds, ex, rules,
						execConfig{shards: k, workers: procs, stats: &stats},
						collectSink(&got))
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatalf("%s/rules%d/k=%d/procs=%d: %v", d.name, ri, k, procs, err)
					}
					samePairs(t, fmt.Sprintf("%s/rules%d/k=%d/procs=%d", d.name, ri, k, procs),
						got, want)
					blocks := (d.ds.A.Len() + shard.TaskBlockRows - 1) / shard.TaskBlockRows
					wantTasks := int64(blocks * k)
					if got := stats.Dispatched.Load(); got != wantTasks {
						t.Errorf("%s/rules%d/k=%d/procs=%d: dispatched %d tasks, want %d",
							d.name, ri, k, procs, got, wantTasks)
					}
					if r := stats.Retried.Load(); r != 0 {
						t.Errorf("%s/rules%d/k=%d: %d retries on a local run", d.name, ri, k, r)
					}
				}
			}
		}
	}

	// The same invariant for union anchors, on the rule sets the default
	// benchmark instances select (measuredRuleSets): their probes forced —
	// at this scale the estimate might prefer another anchor — through
	// K ∈ {1, 4} shards and GOMAXPROCS ∈ {1, 2, 4}.
	scales := map[string]float64{"Products": 0.02, "Citations": 0.01}
	for _, set := range measuredRuleSets {
		ds, err := datagen.DatasetFor(strings.ToLower(set.dataset), scales[set.dataset], 0)
		if err != nil {
			t.Fatal(err)
		}
		ex := feature.NewExtractor(ds)
		rules := measuredRules(ex, set.name)
		want := applyRulesRef(ds, ex, rules)
		p := forcedPlan(t, ex, rules[set.anchor])
		for _, k := range []int{1, 4} {
			for _, procs := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/k=%d/procs=%d", set.name, k, procs)
				prev := runtime.GOMAXPROCS(procs)
				var got []record.Pair
				err := applyRulesShardedTo(ds, ex, rules, p, k,
					execConfig{workers: procs}, collectSink(&got))
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				samePairs(t, name, got, want)
			}
		}
	}
}

// delayExecutor wraps an executor with a Seq-scrambled sleep so task
// completion order is adversarial while remaining deterministic.
type delayExecutor struct{ inner shard.Executor }

func (e delayExecutor) Probe(tasks []shard.Task, attempt int) ([][]record.Pair, error) {
	time.Sleep(time.Duration((uint64(tasks[0].Seq)*2654435761)%5) * time.Millisecond)
	return e.inner.Probe(tasks, attempt)
}

// TestShardedMergeDeterminism pins the coordinator-facing half of the
// invariant at the blocker layer: with worker completion order scrambled
// per task, repeated sharded runs emit the identical stream, equal to the
// unscrambled one.
func TestShardedMergeDeterminism(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.008))
	ex := feature.NewExtractor(ds)
	jw := featureByKind(ex, "jaccard_w")
	rules := []tree.Rule{le(jw, 0.3)}
	want := applyRulesRef(ds, ex, rules)

	const k = 3
	p := planRules(ex, rules)
	if !p.Indexed {
		t.Fatal("rule should anchor an index")
	}
	profA, profB := ex.Profiles(p.probes[0].Feature)
	group := shard.BuildGroup(p.kinds[0], profB, k)
	for trial := 0; trial < 3; trial++ {
		exec := delayExecutor{inner: shard.NewLocalExecutor(ex, group, profA, rules, p.probes[0].Theta)}
		var got []record.Pair
		err := applyRulesShardedTo(ds, ex, rules, p, k,
			execConfig{workers: 4, exec: exec}, collectSink(&got))
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("scrambled trial %d", trial), got, want)
	}
}

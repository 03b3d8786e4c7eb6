package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// computeSample is how many A×B pairs each feature is timed over.
const computeSample = 20000

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t0 := now()
	f()
	return secondsSince(t0)
}

// timedAlloc runs f and returns its wall time and the bytes it allocated.
func timedAlloc(f func()) (seconds float64, bytes uint64) {
	runtime.GC()
	b0, _ := memCounters()
	seconds = timed(f)
	b1, _ := memCounters()
	return seconds, b1 - b0
}

// standaloneProbes times single layers outside the pipeline, on the data
// the staged replay of one instance produced. Each number isolates one
// function so an optimisation of it has a direct before/after figure.
func standaloneProbes(in *instance, st *staged, seed int64, tiny bool, m map[string]float64) error {
	ex := st.ex

	// feature: the blocker's Vectors(S), and each similarity kernel alone
	// over a seeded uniform sample of A×B (the shape the scan sees).
	Xs := st.X
	if st.blk.Triggered {
		m["feature.sample_vectors_s"] = timed(func() { Xs = ex.Vectors(st.blk.Sample) })
	}
	n := computeSample
	if tiny {
		n /= 20
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make([]record.Pair, n)
	for i := range sample {
		sample[i] = record.P(rng.Intn(in.ds.A.Len()), rng.Intn(in.ds.B.Len()))
	}
	scratch := similarity.NewScratch()
	perKind := map[string][]float64{}
	sink := 0.0
	for i, f := range ex.Features() {
		dt := timed(func() {
			for _, p := range sample {
				sink += ex.ComputeScratch(i, p, scratch)
			}
		})
		perKind[f.Kind] = append(perKind[f.Kind], dt*1e9/float64(n))
	}
	_ = sink
	for kind, ns := range perKind {
		m["feature.compute_ns."+kind] = median(ns)
	}

	// forest: one training on the matcher's final training set, and one
	// batched scoring of the whole candidate set (what every active-learning
	// round pays).
	trainX := make([][]float64, len(st.training))
	trainY := make([]bool, len(st.training))
	for i, l := range st.training {
		trainX[i] = ex.Vector(l.Pair)
		trainY[i] = l.Match
	}
	fcfg := in.cfg.Matcher.Active.Forest
	fcfg.Seed = in.cfg.Seed
	m["forest.train_ns_per_example"] = timed(func() { forest.Train(trainX, trainY, fcfg) }) * 1e9 / float64(len(trainX))
	if len(st.X) > 0 {
		sc := forest.NewScorer()
		dst := sc.ConfidencesInto(st.match.Forest, st.X, make([]float64, len(st.X))) // grows the buffers
		m["forest.score_ns_per_vec"] = timed(func() { sc.ConfidencesInto(st.match.Forest, st.X, dst) }) * 1e9 / float64(len(st.X))
	}

	// ruleeval: coverage of the matcher forest's negative rules over the
	// blocker-sized matrix (Vectors(S) when blocking triggered, else X).
	negRules, _ := st.match.Forest.Rules()
	secs, bytes := timedAlloc(func() { ruleeval.MakeCandidates(negRules, Xs) })
	m["ruleeval.make_candidates_s"], m["ruleeval.alloc_bytes"] = secs, float64(bytes)

	if in.ds.Name != "Citations" {
		return nil
	}
	return indexProbes(in, st, m)
}

// devRule is the developer blocking rule for Citations, title word-Jaccard
// <= 0.12 → no match (blocker.DeveloperRules), as a tree.Rule the planner
// can anchor. A fixed rule keeps the index probes comparable when the
// learned rules change.
func devRule(st *staged) (tree.Rule, int, bool) {
	for i, f := range st.ex.Features() {
		if f.Name == "title_jaccard_w" {
			return tree.Rule{Preds: []tree.Predicate{{Feature: i, Op: tree.LE, Threshold: 0.12}}}, i, true
		}
	}
	return tree.Rule{}, 0, false
}

// indexProbes times the similarity-join index and the shard fabric on the
// developer rule: simindex build and probe, the K=4/W=2 local coordinator,
// the K-way merge, and — when the instance's dataset can be rebuilt by a
// worker from a recipe — the same tasks over two loopback HTTP workers.
func indexProbes(in *instance, st *staged, m map[string]float64) error {
	const k, workers, theta = 4, 2, 0.12
	rule, feat, ok := devRule(st)
	if !ok {
		return nil
	}
	rules := []tree.Rule{rule}
	kind, _ := simindex.KindOf("jaccard_w")
	profA, profB := st.ex.Profiles(feat)

	var ix *simindex.Index
	m["simindex.build_s"] = timed(func() { ix = simindex.Build(kind, profB) })
	m["simindex.footprint_bytes"] = float64(ix.Footprint())
	cands := 0
	scratch := simindex.NewScratch()
	probe := timed(func() {
		for _, p := range profA {
			cands += len(ix.Candidates(p, theta, scratch))
		}
	})
	m["simindex.probe_ns_per_row"] = probe * 1e9 / float64(len(profA))
	m["simindex.candidates_per_probe"] = float64(cands) / float64(len(profA))

	group := shard.BuildGroup(kind, profB, k)
	m["shard.index_peak_bytes"] = float64(group.MaxShardFootprint())
	tasks := shard.BlockTasks("bench-probe", len(profA), k)
	var lists [][]record.Pair
	collect := func(_ int, pairs []record.Pair) { lists = append(lists, pairs) }
	local := shard.NewLocalExecutor(st.ex, group, profA, rules, theta)
	var err error
	m["shard.local_probe_s"] = timed(func() {
		err = (&shard.Coordinator{Workers: workers}).Run(tasks, local, collect)
	})
	if err != nil {
		return err
	}
	survivors := 0
	var merged []record.Pair
	merge := timed(func() {
		for b := 0; b+k <= len(lists); b += k {
			merged = shard.MergePairs(merged, lists[b:b+k])
			survivors += len(merged)
		}
	})
	if survivors > 0 {
		m["shard.merge_ns_per_pair"] = merge * 1e9 / float64(survivors)
	}

	if in.recipe == nil {
		return nil
	}
	// Remote: the workers rebuild the dataset from the recipe on first
	// contact and build shard indexes lazily, so the first run loads and
	// the second is timed.
	var urls []string
	for i := 0; i < workers; i++ {
		srv := httptest.NewServer(shard.NewWorker().Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	var stats shard.Stats
	remote := shard.NewRemoteExecutor(urls, *in.recipe, nil)
	remote.BindJob(shard.JobParams{Job: "bench-probe", Shards: k, Feature: feat,
		Theta: theta, Rules: rules, Stats: &stats})
	coord := &shard.Coordinator{Workers: workers, Batch: 16 * k, Backoff: 50 * time.Millisecond, Stats: &stats}
	drop := func(int, []record.Pair) {}
	if err := coord.Run(tasks, remote, drop); err != nil {
		return err
	}
	sent0, recv0, tasks0 := stats.BytesSent.Load(), stats.BytesReceived.Load(), stats.Dispatched.Load()
	remoteSurvivors := 0
	m["shard.remote_probe_s"] = timed(func() {
		err = coord.Run(tasks, remote, func(_ int, pairs []record.Pair) { remoteSurvivors += len(pairs) })
	})
	if err != nil {
		return err
	}
	dispatched := stats.Dispatched.Load() - tasks0
	m["shard.tasks"] = float64(dispatched)
	m["shard.retries"] = float64(stats.Retried.Load())
	m["shard.wire_bytes_per_task"] = float64(stats.BytesSent.Load()-sent0+stats.BytesReceived.Load()-recv0) / float64(dispatched)
	if remoteSurvivors != survivors {
		return fmt.Errorf("%s: remote shard probe kept %d pairs, local kept %d", in.id, remoteSurvivors, survivors)
	}
	return nil
}

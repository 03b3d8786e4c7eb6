package main

import (
	"fmt"
	"math/rand"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/experiments"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/runsvc"
	"github.com/corleone-em/corleone/internal/shard"
)

// instance is one engine.Run input: a generated dataset, its engine
// configuration, and a constructor for its crowd (the simulated crowd
// carries RNG state, so every run gets a fresh one and repeats exactly).
type instance struct {
	id       string
	ds       *record.Dataset
	cfg      engine.Config
	newCrowd func() crowd.Crowd
	// shardStats is cfg.Blocker.ShardStats: tasks dispatched > 0 tells the
	// run went through the index/shard path instead of the A×B scan.
	shardStats *shard.Stats
	// recipe, when non-nil, lets a remote shard worker rebuild ds from
	// nothing (datagen.DatasetFor) — true for BuildSpec datasets only.
	recipe *shard.JobSpec
}

func (in *instance) pairs() int64 { return in.ds.CartesianSize() }

// workload is one named benchmark workload. The instance population is
// fixed per workload: one run's work differs by up to 5x between instance
// seeds (different learned rules, umbrella sizes and iteration counts), so
// a population drawn from --seed could not be steady within any useful
// bound at a run length the box affords. --seed instead fixes the order
// instances run in (and the probe samples of the traced run); -shift moves
// the whole population to fresh instance seeds.
type workload struct {
	name string
	why  string
	// seeds are the instance seeds (pipeline) or job seeds (service).
	seeds []int64
	// tinySeeds is how many of them the -tiny smoke keeps.
	tinySeeds int
	// build generates one pipeline instance; nil marks the service workload.
	build func(seed int64, tiny bool) (*instance, error)
}

// setupInstance is an experiments.NewSetup instance: dataset, crowd and
// engine seeds all derive from seed, the crowd errs on 5% of answers.
func setupInstance(name string, scale, tinyScale float64) func(int64, bool) (*instance, error) {
	return func(seed int64, tiny bool) (*instance, error) {
		sc := scale
		if tiny {
			sc = tinyScale
		}
		su := experiments.NewSetup(name, sc, experiments.DefaultErrorRate, seed)
		ds := su.Dataset()
		return &instance{
			id:       fmt.Sprintf("%s×%g#%d", name, sc, seed),
			ds:       ds,
			cfg:      su.EngineConfig(),
			newCrowd: func() crowd.Crowd { return su.Crowd(ds) },
		}, nil
	}
}

// indexInstance forces the index/shard path the default planner never
// takes: t_B = 1 shrinks the blocking sample to one B row per A row, the
// forest over it yields a single-feature set-similarity rule, and planRules
// anchors it. The crowd is the oracle BuildSpec gives a Meta without an
// error rate; it is stateless, so runs share it.
func indexInstance(seed int64, tiny bool) (*instance, error) {
	scale := 0.15
	if tiny {
		scale = 0.05
	}
	spec, err := runsvc.BuildSpec(runsvc.Meta{Profile: "citations", Scale: scale,
		TB: 1, Shards: 4, ShardWorkers: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &instance{
		id:         fmt.Sprintf("citations×%g/tb1#%d", scale, seed),
		ds:         spec.Dataset,
		cfg:        spec.Config,
		newCrowd:   func() crowd.Crowd { return spec.Crowd },
		shardStats: &shard.Stats{},
		recipe:     &shard.JobSpec{Dataset: "citations", Scale: scale},
	}
	in.cfg.Blocker.ShardStats = in.shardStats
	return in, nil
}

func seq(from, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}

// Service workload sizing: how many of a pass's jobs are resumed in a fresh
// manager afterwards, warm-up jobs before the timed submit phase, and pool
// width. Passes are kept short (~1.3 s) so a run's medians rest on many of
// them: fsync latency makes single passes wander by 10% and more.
const (
	svcResumes = 10
	svcWarmup  = 4
	svcWorkers = 2 // executor pool width = closed-loop clients = cores
)

var workloads = []workload{
	{
		name:      "cit-scan",
		why:       "Citations x0.1 seeds 1,2,6 (1.68M pairs each): blocking triggers, no indexable anchor, so the exhaustive AxB scan dominates and rule learning is next; matcher/estimator/locator are minor.",
		seeds:     []int64{1, 2, 6},
		tinySeeds: 1,
		build:     setupInstance("Citations", 0.1, 0.03),
	},
	{
		name:      "prod-learn",
		why:       "Products x0.2 seeds 1,2 (2.25M pairs each): text-heavy schema and a large sample S, so vectorising S plus active learning leads and the scan runs exact/overlap/tfidf predicates, not Jaro.",
		seeds:     []int64{1, 2},
		tinySeeds: 1,
		build:     setupInstance("Products", 0.2, 0.05),
	},
	{
		name:      "rest-match",
		why:       "Restaurants x1.0 seeds 2,3 (176k pairs each, below t_B): blocking passes everything through; Extractor.Vectors, matcher, estimator and locator do the work. Blocking changes must not move it.",
		seeds:     []int64{2, 3},
		tinySeeds: 1,
		build:     setupInstance("Restaurants", 1.0, 0.3),
	},
	{
		name:      "cit-index",
		why:       "citations x0.15 t_B=1 Shards=4 seeds 3,5,6,7,9,10,11 (3.8M pairs each): the only way the simindex/shard path runs; candidates come from K=4 shard probes and extractor build is the largest share.",
		seeds:     []int64{3, 5, 6, 7, 9, 10, 11},
		tinySeeds: 2,
		build:     indexInstance,
	},
	{
		name:      "svc-journal",
		why:       "40 restaurants x0.1 oracle-crowd jobs (seeds 1..40) per pass through runsvc, 2 workers, journal + per-checkpoint snapshots, then 10 resumes in a fresh manager: appends, fsyncs and replay dominate.",
		seeds:     seq(1, 40),
		tinySeeds: 6,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// population returns the workload's instance/job seeds for this run.
func (w *workload) population(shift int64, tiny bool) []int64 {
	seeds := w.seeds
	if tiny {
		seeds = seeds[:w.tinySeeds]
	}
	out := make([]int64, len(seeds))
	for i, s := range seeds {
		out[i] = s + shift
	}
	return out
}

// buildInstances generates every pipeline instance of the population.
func (w *workload) buildInstances(seeds []int64, tiny bool) ([]*instance, error) {
	insts := make([]*instance, len(seeds))
	for i, s := range seeds {
		in, err := w.build(s, tiny)
		if err != nil {
			return nil, fmt.Errorf("%s: instance seed %d: %w", w.name, s, err)
		}
		insts[i] = in
	}
	return insts, nil
}

// svcMeta is the service workload's job description for one job seed. The
// crowd is the oracle (no ErrorRate): under the noisy simulated crowd a
// resumed job re-solicits answers and lands on a different Result in about
// half the jobs (16 of 30 seeds tried), which would fail the resume check;
// with the oracle, as in runsvc's own resume tests, resume is exact.
func svcMeta(seed int64) runsvc.Meta {
	return runsvc.Meta{Profile: "restaurants", Scale: 0.1, Seed: seed}
}

// runOrder is the order the population runs in, derived from --seed.
func runOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

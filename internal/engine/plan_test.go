package engine_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/corleone-em/corleone/internal/blocker"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/experiments"
	"github.com/corleone-em/corleone/internal/shard"
)

// TestDefaultInstancesPlan pins what the blocking planner decides on default
// runs — the benchmark's cit-scan and prod-learn instances plus prod-learn's
// -shift 1 newcomer: which learn a rule whose probes reach the index path,
// with which probes, and why the others scan (DESIGN.md §9.1). A change to
// rule learning moves these legitimately; a change to the planner must not.
func TestDefaultInstancesPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("six full pipeline runs")
	}
	probe := func(feature, kind string, theta float64) blocker.PlanProbe {
		return blocker.PlanProbe{Feature: feature, Kind: kind, Theta: theta}
	}
	cases := []struct {
		dataset string
		scale   float64
		seed    int64
		probes  []blocker.PlanProbe // thresholds to four digits, as rules print
		reason  string
	}{
		{"Products", 0.2, 1, []blocker.PlanProbe{probe("price_rel_diff", "rel_diff", 0.9539)}, ""},
		{"Products", 0.2, 2, []blocker.PlanProbe{
			probe("price_rel_diff", "rel_diff", 0.9677), probe("modelno_jaccard_3g", "jaccard_3g", 0.7857)}, ""},
		{"Citations", 0.1, 1, []blocker.PlanProbe{
			probe("title_jaccard_w", "jaccard_w", 0.4643), probe("venue_jaccard_3g", "jaccard_3g", 0.008929)}, ""},
		{"Citations", 0.1, 2, nil, "predicate on authors_edit (edit) not indexable"},
		{"Citations", 0.1, 6, nil, "predicate on authors_jaro_winkler (jaro_winkler) not indexable"},
		{"Products", 0.2, 3, nil, "predicate on modelno_exact (exact) not indexable"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s#%d", tc.dataset, tc.seed), func(t *testing.T) {
			t.Parallel()
			su := experiments.NewSetup(tc.dataset, tc.scale, experiments.DefaultErrorRate, tc.seed)
			ds := su.Dataset()
			cfg := su.EngineConfig()
			var stats shard.Stats
			cfg.Blocker.ShardStats = &stats
			res, err := engine.Run(ds, su.Crowd(ds), cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan := res.Blocking.Plan
			if plan.Survivors != int64(len(res.Blocking.Candidates)) {
				t.Errorf("plan counts %d survivors, umbrella set has %d", plan.Survivors, len(res.Blocking.Candidates))
			}
			if tc.probes == nil {
				if plan.Indexed || plan.Reason != tc.reason || stats.Dispatched.Load() != 0 {
					t.Errorf("plan %+v with %d shard tasks, want a scan because %q", plan, stats.Dispatched.Load(), tc.reason)
				}
				return
			}
			if !plan.Indexed || plan.Reason != "" || plan.Rule == "" || len(plan.Probes) != len(tc.probes) {
				t.Fatalf("plan %+v, want index probes %+v", plan, tc.probes)
			}
			for i, want := range tc.probes {
				got := plan.Probes[i]
				if got.Feature != want.Feature || got.Kind != want.Kind || math.Abs(got.Theta-want.Theta) > 5e-5*want.Theta {
					t.Errorf("probe %d is %+v, want %+v", i, got, want)
				}
			}
			// The estimate is a 64-row sample scaled up; it has to land near
			// what the probes then generated, and well under the scan's count.
			generated := stats.Candidates.Load()
			if generated <= 0 || generated >= res.Blocking.CartesianSize/2 {
				t.Errorf("probes generated %d candidates of %d pairs", generated, res.Blocking.CartesianSize)
			}
			if ratio := float64(plan.Estimated) / float64(generated); ratio < 0.75 || ratio > 1.25 {
				t.Errorf("estimated %d candidates, generated %d", plan.Estimated, generated)
			}
		})
	}
}

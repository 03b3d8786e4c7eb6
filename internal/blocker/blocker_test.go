package blocker

import (
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/active"
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
	"github.com/corleone-em/corleone/internal/stats"
	"github.com/corleone-em/corleone/internal/tree"
)

func smallCitations(t *testing.T) *record.Dataset {
	t.Helper()
	p := datagen.Scaled(datagen.CitationsPaper, 0.04)
	return datagen.Generate(p)
}

func TestRunNoBlockingBelowThreshold(t *testing.T) {
	ds := smallCitations(t)
	ex := feature.NewExtractor(ds)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: ds.Truth}, 0.01)
	cfg := Defaults() // TB = 3M far above the Cartesian size
	res, err := Run(ds, ex, runner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triggered {
		t.Error("blocking should not trigger")
	}
	if int64(len(res.Candidates)) != ds.CartesianSize() {
		t.Errorf("candidates = %d, want full Cartesian product %d",
			len(res.Candidates), ds.CartesianSize())
	}
	if runner.Stats().Answers != 0 {
		t.Error("no crowd work expected without blocking")
	}
}

func TestRunBlockingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full blocking run")
	}
	ds := smallCitations(t)
	ex := feature.NewExtractor(ds)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: ds.Truth}, 0.01)
	cfg := Defaults()
	cfg.TB = 20000
	cfg.Seed = 5
	res, err := Run(ds, ex, runner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Triggered {
		t.Fatal("blocking should trigger")
	}
	if res.SampleSize < cfg.TB/2 {
		t.Errorf("|S| = %d, want about t_B", res.SampleSize)
	}
	if len(res.Selected) == 0 {
		t.Fatal("no blocking rules selected")
	}
	if int64(len(res.Candidates)) >= ds.CartesianSize() {
		t.Error("blocking did not reduce the Cartesian product")
	}
	// Recall: most true matches must survive.
	kept := ds.Truth.CountMatchesIn(res.Candidates)
	recall := float64(kept) / float64(ds.Truth.NumMatches())
	if recall < 0.8 {
		t.Errorf("blocking recall %.2f, want >= 0.8", recall)
	}
	// Reduction must be substantial.
	frac := float64(len(res.Candidates)) / float64(ds.CartesianSize())
	if frac > 0.5 {
		t.Errorf("umbrella is %.2f of the Cartesian product", frac)
	}
	// The selected rules must all be negative rules.
	for _, r := range res.Selected {
		if r.Positive {
			t.Error("positive rule selected for blocking")
		}
	}
	if res.CandidateRuleCount == 0 || len(res.Evaluated) == 0 {
		t.Error("missing rule bookkeeping")
	}
	// CandidateRuleCount counts the rules with coverage over S; relearning
	// the same forest must find no negative rule without it.
	seedX := make([][]float64, len(ds.Seeds))
	for i, s := range ds.Seeds {
		seedX[i] = ex.Vector(s.Pair)
	}
	acfg := cfg.Active
	acfg.Seed = cfg.Seed
	relearner := crowd.NewRunner(&crowd.Oracle{Truth: ds.Truth}, 0.01)
	relearner.SeedLabels(ds.Seeds)
	learned, err := active.Learn(relearner, res.Sample, ex.Vectors(res.Sample), ds.Seeds, seedX, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if neg, _ := learned.Forest.Rules(); len(neg) != res.CandidateRuleCount {
		t.Errorf("CandidateRuleCount = %d, but the forest has %d negative rules", res.CandidateRuleCount, len(neg))
	}
	// Seeds must be in the sample.
	inS := record.NewPairSet(res.Sample...)
	for _, s := range ds.Seeds {
		if !inS.Has(s.Pair) {
			t.Errorf("seed %v missing from S", s.Pair)
		}
	}
}

func TestSamplePairsSmallerTableA(t *testing.T) {
	ds := smallCitations(t) // |A| < |B|
	rng := rand.New(rand.NewSource(1))
	S, _ := samplePairs(rng, ds, 5000)
	if len(S) < 2500 || len(S) > 7500 {
		t.Errorf("|S| = %d, want ~5000", len(S))
	}
	// Every A row should appear.
	rowsA := map[int32]bool{}
	for _, p := range S {
		rowsA[p.A] = true
	}
	if len(rowsA) != ds.A.Len() {
		t.Errorf("S covers %d A-rows of %d", len(rowsA), ds.A.Len())
	}
}

func TestSamplePairsSmallerTableB(t *testing.T) {
	// Swap the tables so B is smaller.
	ds := smallCitations(t)
	ds2 := &record.Dataset{Name: ds.Name, A: ds.B, B: ds.A, Truth: ds.Truth, Seeds: ds.Seeds}
	rng := rand.New(rand.NewSource(2))
	S, _ := samplePairs(rng, ds2, 5000)
	rowsB := map[int32]bool{}
	for _, p := range S {
		rowsB[p.B] = true
	}
	if len(rowsB) != ds2.B.Len() {
		t.Errorf("S covers %d B-rows of %d", len(rowsB), ds2.B.Len())
	}
}

func TestGreedySelectStopsAtTarget(t *testing.T) {
	// Synthetic kept rules over a 1000-example sample; target reduction to
	// 10% of 100x100=10000 Cartesian -> tb such that target = 100.
	n := 1000
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(i) / float64(n)}
	}
	mkRule := func(thr float64) ruleeval.Result {
		r := tree.Rule{Preds: []tree.Predicate{{Feature: 0, Op: tree.LE, Threshold: thr}}}
		return ruleeval.Result{
			Candidate: ruleeval.MakeCandidates([]tree.Rule{r}, X)[0],
			Precision: stats.Interval{Point: 1},
			Kept:      true,
		}
	}
	kept := []ruleeval.Result{mkRule(0.5), mkRule(0.85), mkRule(0.3)}
	// Cartesian = |S| here for simplicity; tb = 120 -> target = 120.
	selected := greedySelect(kept, X, 10, 100, 120, func(int) float64 { return 1 })
	if len(selected) == 0 {
		t.Fatal("nothing selected")
	}
	// Apply and count survivors: must not grossly overshoot the target.
	alive := 0
	for _, v := range X {
		covered := false
		for _, r := range selected {
			if r.Matches(v) {
				covered = true
				break
			}
		}
		if !covered {
			alive++
		}
	}
	if alive > 200 {
		t.Errorf("survivors = %d, want <= ~target 120", alive)
	}
	if alive < 100 {
		t.Errorf("survivors = %d — overshot far below target 120", alive)
	}
}

func TestGreedySelectEmpty(t *testing.T) {
	if got := greedySelect(nil, nil, 10, 10, 5, func(int) float64 { return 1 }); got != nil {
		t.Error("empty kept should select nothing")
	}
}

// greedyX builds the synthetic sample the greedySelect edge-case tests
// share: n examples with one feature valued i/n, so a rule "f ≤ θ" covers
// exactly ⌊θ·n⌋+1 examples.
func greedyX(n int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(i) / float64(n)}
	}
	return X
}

func greedyRule(thr float64, X [][]float64) ruleeval.Result {
	r := tree.Rule{Preds: []tree.Predicate{{Feature: 0, Op: tree.LE, Threshold: thr}}}
	return ruleeval.Result{
		Candidate: ruleeval.MakeCandidates([]tree.Rule{r}, X)[0],
		Precision: stats.Interval{Point: 1},
		Kept:      true,
	}
}

// TestGreedySelectAllOvershoot: when every useful rule lands below the
// target, §4.3 applies the single gentlest one (landing closest to the
// target from below) and stops — reducing too far destroys recall for no
// budget benefit.
func TestGreedySelectAllOvershoot(t *testing.T) {
	X := greedyX(1000)
	// na·nb = 1000 = |S|, so target = tb = 100. Both rules overshoot
	// (landings 50 and 80); the 0.919 rule lands closer.
	kept := []ruleeval.Result{greedyRule(0.949, X), greedyRule(0.919, X)}
	selected := greedySelect(kept, X, 10, 100, 100, func(int) float64 { return 1 })
	if len(selected) != 1 {
		t.Fatalf("selected %d rules, want exactly the gentlest overshooter", len(selected))
	}
	if thr := selected[0].Preds[0].Threshold; thr != 0.919 {
		t.Errorf("selected threshold %g, want the gentlest (0.919)", thr)
	}
}

// TestGreedySelectIgnoresUseless: rules whose marginal coverage is at or
// under 0.5% of the survivors are never applied, even when the target has
// not been reached — executing them costs a full A×B pass for nothing.
func TestGreedySelectIgnoresUseless(t *testing.T) {
	X := greedyX(1000)
	// cov = 5 = aliveCount/200 exactly: at the minUseful boundary, ignored.
	tiny := greedyRule(0.004, X)
	selected := greedySelect([]ruleeval.Result{tiny}, X, 10, 100, 100, func(int) float64 { return 1 })
	if len(selected) != 0 {
		t.Errorf("selected %d rules, want none (only useless rules exist)", len(selected))
	}
	// Alongside a real rule the tiny one still never fires, including on the
	// second iteration when the big rule has already been applied.
	big := greedyRule(0.5, X)
	selected = greedySelect([]ruleeval.Result{tiny, big}, X, 10, 100, 100, func(int) float64 { return 1 })
	for _, r := range selected {
		if r.Preds[0].Threshold == 0.004 {
			t.Error("useless rule was selected")
		}
	}
	if len(selected) == 0 {
		t.Error("the useful rule should still be selected")
	}
}

func TestDropContradicted(t *testing.T) {
	rows := func(idx ...int) *ruleeval.RowSet {
		s := ruleeval.NewRowSet(10)
		for _, i := range idx {
			s.Add(i)
		}
		return s
	}
	mk := func(cov *ruleeval.RowSet) ruleeval.Result {
		return ruleeval.Result{Candidate: ruleeval.Candidate{Coverage: cov}, Kept: true}
	}
	kept := []ruleeval.Result{
		mk(rows(0, 1, 2, 3, 4)), // covers 2 positives
		mk(rows(5, 6)),          // covers none
	}
	pos := rows(0, 1, 9)
	out := dropContradicted(kept, pos, 0.2) // limit = 0.6 positives
	if len(out) != 1 || out[0].Candidate.Coverage.Len() != 2 {
		t.Errorf("dropContradicted kept %d rules", len(out))
	}
	// Tolerant threshold keeps both.
	out = dropContradicted(kept, pos, 0.9)
	if len(out) != 2 {
		t.Errorf("tolerant threshold dropped rules: %d", len(out))
	}
	// No positives -> keep all.
	if got := dropContradicted(kept, rows(), 0.2); len(got) != 2 {
		t.Error("no-positive veto should keep everything")
	}
}

func TestApplyRulesNoRules(t *testing.T) {
	ds := smallCitations(t)
	ex := feature.NewExtractor(ds)
	got := applyRules(ds, ex, nil)
	if int64(len(got)) != ds.CartesianSize() {
		t.Error("no rules should keep everything")
	}
}

func TestApplyRulesMatchesSequentialSemantics(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.015))
	ex := feature.NewExtractor(ds)
	// A rule on the title-jaccard feature.
	ti := -1
	for i, n := range ex.Names() {
		if n == "title_jaccard_w" {
			ti = i
		}
	}
	if ti < 0 {
		t.Fatal("feature title_jaccard_w not found")
	}
	rule := tree.Rule{Preds: []tree.Predicate{{Feature: ti, Op: tree.LE, Threshold: 0.2}}}
	got := applyRules(ds, ex, []tree.Rule{rule})
	want := record.NewPairSet()
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			p := record.P(a, b)
			if !rule.Matches(ex.Vector(p)) {
				want.Add(p)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("parallel apply kept %d, sequential %d", len(got), len(want))
	}
	for _, p := range got {
		if !want.Has(p) {
			t.Fatalf("pair %v should have been blocked", p)
		}
	}
}

func TestDeveloperRules(t *testing.T) {
	for _, name := range []string{"Restaurants", "Citations", "Products"} {
		var ds *record.Dataset
		switch name {
		case "Restaurants":
			ds = datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.3))
		case "Citations":
			ds = datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.015))
		case "Products":
			ds = datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.04))
		}
		rules, desc := DeveloperRules(ds)
		if desc == "" {
			t.Errorf("%s: empty description", name)
		}
		if name == "Restaurants" {
			if rules != nil {
				t.Error("Restaurants should have no developer rules")
			}
			continue
		}
		cands := ApplyDevRules(ds, rules)
		if int64(len(cands)) >= ds.CartesianSize() {
			t.Errorf("%s: developer rules did not reduce", name)
		}
		kept := ds.Truth.CountMatchesIn(cands)
		recall := float64(kept) / float64(ds.Truth.NumMatches())
		if recall < 0.85 {
			t.Errorf("%s: developer blocking recall %.2f", name, recall)
		}
	}
}

func TestDeveloperRulesUnknownDataset(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.2))
	ds.Name = "Mystery"
	rules, _ := DeveloperRules(ds)
	if len(rules) == 0 {
		t.Error("unknown dataset should get the generic rule")
	}
	ds.A.Rows = nil
	if cands := ApplyDevRules(ds, rules); len(cands) != 0 {
		t.Errorf("empty table A: %d candidates", len(cands))
	}
}

package engine

import (
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
)

// TestRunRestaurantsOracle runs the full pipeline on a small Restaurants
// dataset with a perfect crowd: no blocking should trigger, and accuracy
// should be high.
func TestRunRestaurantsOracle(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.5))
	c := &crowd.Oracle{Truth: ds.Truth}
	cfg := Defaults()
	cfg.Seed = 7
	res, err := Run(ds, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("blocking triggered=%v cartesian=%d candidates=%d",
		res.Blocking.Triggered, res.Blocking.CartesianSize, len(res.Blocking.Candidates))
	t.Logf("true=%v estF1=%.1f estP=%.3f±%.3f estR=%.3f±%.3f",
		res.True, res.EstimatedF1,
		res.EstimatedPrecision.Point, res.EstimatedPrecision.Margin,
		res.EstimatedRecall.Point, res.EstimatedRecall.Margin)
	t.Logf("cost=$%.2f answers=%d pairs=%d iterations=%d stop=%q",
		res.Accounting.Cost, res.Accounting.Answers, res.Accounting.Pairs,
		res.Iterations, res.StopReason)
	for _, ph := range res.Phases {
		t.Logf("phase %-14s pairs=%-5d true=%v est=%v reduced=%d",
			ph.Name, ph.PairsLabeled, ph.True, ph.Estimated, ph.ReducedSetSize)
	}
	if res.Blocking.Triggered {
		t.Error("blocking should not trigger on a small dataset")
	}
	if res.True.F1 < 85 {
		t.Errorf("F1 = %.1f, want >= 85 with a perfect crowd", res.True.F1)
	}
	if res.Accounting.Pairs == 0 || res.Accounting.Cost <= 0 {
		t.Error("expected nonzero crowd usage")
	}
}

// TestRunCitationsBlocking runs the pipeline on a scaled Citations dataset
// sized so that blocking triggers, with a mildly noisy crowd.
func TestRunCitationsBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.08))
	c := crowd.NewSimulated(ds.Truth, 0.05, 99)
	cfg := Defaults()
	cfg.Seed = 7
	cfg.Blocker.TB = 20000
	res, err := Run(ds, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("|A|=%d |B|=%d matches=%d cartesian=%d", ds.A.Len(), ds.B.Len(),
		ds.Truth.NumMatches(), res.Blocking.CartesianSize)
	t.Logf("blocking triggered=%v candidates=%d rules=%d(sel=%d)",
		res.Blocking.Triggered, len(res.Blocking.Candidates),
		res.Blocking.CandidateRuleCount, len(res.Blocking.Selected))
	t.Logf("true=%v estF1=%.1f cost=$%.2f pairs=%d iter=%d stop=%q",
		res.True, res.EstimatedF1, res.Accounting.Cost, res.Accounting.Pairs,
		res.Iterations, res.StopReason)
	for _, ph := range res.Phases {
		t.Logf("phase %-14s pairs=%-5d true=%v est=%v reduced=%d",
			ph.Name, ph.PairsLabeled, ph.True, ph.Estimated, ph.ReducedSetSize)
	}
	if !res.Blocking.Triggered {
		t.Error("blocking should trigger")
	}
	if res.True.F1 < 75 {
		t.Errorf("F1 = %.1f, want >= 75", res.True.F1)
	}
}

// funcCrowd adapts a function to the Crowd interface.
type funcCrowd func(p record.Pair) bool

func (f funcCrowd) Answer(p record.Pair) bool { return f(p) }

// TestRunBudgetMode verifies the run stops once the crowd spend reaches the
// budget and reports it.
func TestRunBudgetMode(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))
	c := &crowd.Oracle{Truth: ds.Truth}
	cfg := Defaults()
	cfg.Seed = 3
	cfg.Budget = 0.50 // 50 cents
	res, err := Run(ds, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The budget check runs between phases and inside active learning, so
	// overshoot is bounded by one voting escalation, not a whole phase.
	if res.Accounting.Cost > 1.0 {
		t.Errorf("cost $%.2f blew the $0.50 budget", res.Accounting.Cost)
	}
	if res.StopReason != "budget exhausted" {
		t.Errorf("stop reason = %q", res.StopReason)
	}
}

// TestRunSkipEstimator checks the blocker+matcher-only mode.
func TestRunSkipEstimator(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))
	cfg := Defaults()
	cfg.Seed = 5
	cfg.SkipEstimator = true
	res, err := Run(ds, &crowd.Oracle{Truth: ds.Truth}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
	for _, ph := range res.Phases {
		if ph.HasEst {
			t.Error("estimation phase present despite SkipEstimator")
		}
	}
	if len(res.Matches) == 0 {
		t.Error("no matches returned")
	}
}

// TestRunWithoutGroundTruth drives the engine as a real deployment would:
// no gold standard, labels from an external crowd function.
func TestRunWithoutGroundTruth(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))
	truth := ds.Truth
	ds.Truth = nil // the engine must not need it
	c := funcCrowd(func(p record.Pair) bool { return truth.Match(p) })
	cfg := Defaults()
	cfg.Seed = 7
	res, err := Run(ds, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasTrue {
		t.Error("true metrics reported without ground truth")
	}
	if res.EstimatedF1 <= 0 {
		t.Errorf("estimated F1 = %v", res.EstimatedF1)
	}
	got := metricsEval(res.Matches, truth)
	if got < 85 {
		t.Errorf("true F1 (computed externally) = %.1f", got)
	}
}

func metricsEval(pred []record.Pair, truth *record.GroundTruth) float64 {
	tp := truth.CountMatchesIn(pred)
	if len(pred) == 0 || truth.NumMatches() == 0 {
		return 0
	}
	p := float64(tp) / float64(len(pred))
	r := float64(tp) / float64(truth.NumMatches())
	if p+r == 0 {
		return 0
	}
	return 100 * 2 * p * r / (p + r)
}

// TestRunInvalidDataset checks validation is enforced.
func TestRunInvalidDataset(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.3))
	ds.Seeds = ds.Seeds[:2]
	if _, err := Run(ds, &crowd.Oracle{Truth: ds.Truth}, Defaults()); err == nil {
		t.Error("expected validation error")
	}
}

// TestRunDeterministic: same dataset, same seed, same result.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	run := func() *Result {
		ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))
		cfg := Defaults()
		cfg.Seed = 11
		res, err := Run(ds, crowd.NewSimulated(ds.Truth, 0.05, 13), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.True.F1 != b.True.F1 || a.Accounting.Cost != b.Accounting.Cost ||
		a.Accounting.Pairs != b.Accounting.Pairs || len(a.Matches) != len(b.Matches) {
		t.Errorf("nondeterministic: F1 %v/%v cost %v/%v pairs %d/%d",
			a.True.F1, b.True.F1, a.Accounting.Cost, b.Accounting.Cost,
			a.Accounting.Pairs, b.Accounting.Pairs)
	}
}

// TestPhaseAccounting verifies the Table 4 bookkeeping invariants.
func TestPhaseAccounting(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))
	cfg := Defaults()
	cfg.Seed = 17
	res, err := Run(ds, &crowd.Oracle{Truth: ds.Truth}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ph := range res.Phases {
		if ph.PairsLabeled < 0 {
			t.Errorf("phase %s has negative pair count", ph.Name)
		}
		total += ph.PairsLabeled
	}
	if total > res.Accounting.Pairs {
		t.Errorf("phase pair sum %d exceeds total %d", total, res.Accounting.Pairs)
	}
	if res.Phases[0].Name != "Iteration 1" || !res.Phases[0].HasTrue {
		t.Errorf("first phase = %+v", res.Phases[0])
	}
	if len(res.IterationMatches) != res.Iterations {
		t.Errorf("IterationMatches = %d for %d iterations",
			len(res.IterationMatches), res.Iterations)
	}
	if len(res.ConfidenceTraces) != res.Iterations {
		t.Errorf("ConfidenceTraces = %d", len(res.ConfidenceTraces))
	}
}

// TestAllocateBudget checks the §10 split sums to the total.
func TestAllocateBudget(t *testing.T) {
	pb := AllocateBudget(100)
	if got := pb.Blocking + pb.Matching + pb.Estimation; got < 99.99 || got > 100.01 {
		t.Errorf("phase budgets sum to %v, want 100", got)
	}
	if pb.Matching < pb.Blocking || pb.Matching < pb.Estimation {
		t.Error("matching should get the largest share")
	}
}

// TestRunPhaseBudgets caps each stage and verifies the caps hold (within
// one voting escalation of slack per phase).
func TestRunPhaseBudgets(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.5))
	cfg := Defaults()
	cfg.Seed = 29
	cfg.PhaseBudgets = AllocateBudget(3.00)
	res, err := Run(ds, crowd.NewSimulated(ds.Truth, 0.05, 31), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Total spend bounded by the allocation plus bounded overshoot.
	if res.Accounting.Cost > 4.50 {
		t.Errorf("cost $%.2f blew the $3.00 allocation", res.Accounting.Cost)
	}
	if len(res.Matches) == 0 {
		t.Error("no matches under phase budgets")
	}
}

// TestListenerEvents checks the progress-event stream covers each phase.
func TestListenerEvents(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.3))
	cfg := Defaults()
	cfg.Seed = 41
	var phases []string
	cfg.Listener = func(e Event) { phases = append(phases, e.Phase) }
	if _, err := Run(ds, &crowd.Oracle{Truth: ds.Truth}, cfg); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range phases {
		seen[p] = true
	}
	for _, want := range []string{"blocking", "matching", "estimation"} {
		if !seen[want] {
			t.Errorf("no %q events (got %v)", want, phases)
		}
	}
}

// TestSummaryRendering checks the human-readable report contains the key
// facts.
func TestSummaryRendering(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.3))
	cfg := Defaults()
	cfg.Seed = 43
	res, err := Run(ds, &crowd.Oracle{Truth: ds.Truth}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{"Corleone run", "matches:", "estimated:",
		"true:", "crowd:", "stopped:", "Iteration 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestCancel aborts a run via the Cancel channel and gets a partial result.
func TestCancel(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))
	cfg := Defaults()
	cfg.Seed = 47
	ch := make(chan struct{})
	close(ch) // cancel immediately
	cfg.Cancel = ch
	res, err := Run(ds, &crowd.Oracle{Truth: ds.Truth}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "canceled" {
		t.Errorf("stop reason = %q", res.StopReason)
	}
}

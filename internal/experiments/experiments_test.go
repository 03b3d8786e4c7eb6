package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
)

// tinySetups returns fast-running setups for the three datasets.
func tinySetups() []Setup {
	return []Setup{
		NewSetup("Restaurants", 0.4, 0, 3),
		NewSetup("Citations", 0.04, 0, 4),
		NewSetup("Products", 0.06, 0, 5),
	}
}

func TestNewSetupShape(t *testing.T) {
	s := NewSetup("Citations", 0.1, 0.05, 1)
	if s.Profile.SizeA == 0 || s.TB == 0 || s.Price != 0.01 {
		t.Errorf("setup = %+v", s)
	}
	p := NewSetup("Products", 0.1, 0.05, 1)
	if p.Price != 0.02 {
		t.Errorf("Products price = %v, want 0.02", p.Price)
	}
	// Restaurants at full scale: t_B must exceed the Cartesian product.
	r := NewSetup("Restaurants", 1.0, 0.05, 1)
	cart := int64(r.Profile.SizeA) * int64(r.Profile.SizeB)
	if int64(r.TB) <= cart {
		t.Error("Restaurants should not trigger blocking")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset should panic")
		}
	}()
	NewSetup("Nope", 1, 0, 1)
}

func TestSetupCrowd(t *testing.T) {
	s := NewSetup("Restaurants", 0.3, 0, 1)
	ds := s.Dataset()
	// Error rate 0 gives the oracle; positive gives the simulated crowd.
	if _, ok := s.Crowd(ds).(*crowd.Oracle); !ok {
		t.Error("zero error rate should use the oracle")
	}
	s.ErrorRate = 0.1
	if _, ok := s.Crowd(ds).(*crowd.Simulated); !ok {
		t.Error("positive error rate should use the simulated crowd")
	}
}

func TestRunAllAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline sweep")
	}
	runs, err := RunAll(tinySetups(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}

	t1 := Table1(runs)
	for _, want := range []string{"Restaurants", "Citations", "Products", "Table A"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}

	t2 := Table2(runs)
	if !strings.Contains(t2, "B2") || !strings.Contains(t2, "$") {
		t.Errorf("Table2 malformed:\n%s", t2)
	}
	// The paper's headline shapes at oracle-crowd settings:
	// Baseline 1 must collapse on Restaurants (skew kills random sampling).
	if runs[0].B1.Metrics.F1 > runs[0].Result.True.F1-10 {
		t.Errorf("Restaurants B1 F1 %.1f too close to Corleone %.1f",
			runs[0].B1.Metrics.F1, runs[0].Result.True.F1)
	}
	// Corleone achieves decent accuracy everywhere. The floors reflect the
	// tiny test scales (Products keeps only ~70 matches here, so blocking
	// noise costs more than at the default experiment scale).
	floors := map[string]float64{"Restaurants": 85, "Citations": 80, "Products": 60}
	for _, r := range runs {
		if r.Result.True.F1 < floors[r.Dataset.Name] {
			t.Errorf("%s: Corleone F1 %.1f < %.0f", r.Dataset.Name,
				r.Result.True.F1, floors[r.Dataset.Name])
		}
	}

	t3 := Table3(runs)
	if !strings.Contains(t3, "Umbrella") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}
	// Blocking must trigger for Citations and Products but not Restaurants.
	if runs[0].Result.Blocking.Triggered {
		t.Error("Restaurants blocked")
	}
	for _, i := range []int{1, 2} {
		if !runs[i].Result.Blocking.Triggered {
			t.Errorf("%s did not block", runs[i].Dataset.Name)
		}
		frac := float64(len(runs[i].Result.Blocking.Candidates)) /
			float64(runs[i].Result.Blocking.CartesianSize)
		if frac > 0.5 {
			t.Errorf("%s umbrella fraction %.2f", runs[i].Dataset.Name, frac)
		}
	}

	t4 := Table4(runs)
	if !strings.Contains(t4, "Iteration 1") || !strings.Contains(t4, "Estimation 1") {
		t.Errorf("Table4 malformed:\n%s", t4)
	}

	// Figure 3 renders a series per iteration.
	f3 := Figure3(runs)
	if !strings.Contains(f3, "iteration 1") {
		t.Errorf("Figure3 malformed:\n%s", f3)
	}

	// Reduction effectiveness and the rule audit run off the same data.
	rows, txt := ReductionEffectiveness(runs)
	if len(rows) == 0 || !strings.Contains(txt, "F1") {
		t.Error("reduction analysis empty")
	}
	audits, txt2 := RulePrecisionAudit(runs)
	if len(audits) == 0 || !strings.Contains(txt2, "prec") {
		t.Error("rule audit empty")
	}
	for _, a := range audits {
		if a.Count > 0 && a.MeanPrec < 90 {
			t.Errorf("%s/%s mean rule precision %.1f < 90", a.Dataset, a.Step, a.MeanPrec)
		}
	}
}

func TestFigure2(t *testing.T) {
	out := Figure2()
	for _, want := range []string{"Tree 1", "Tree 2", "isbn_match", "-> No"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure2 missing %q", want)
		}
	}
}

func TestFigure4(t *testing.T) {
	out := Figure4()
	for _, want := range []string{"Record 1", "Record 2", "brand", "Yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure4 missing %q", want)
		}
	}
}

func TestRunBaselineModes(t *testing.T) {
	s := NewSetup("Citations", 0.03, 0, 7)
	ds := s.Dataset()
	b1 := RunBaseline(ds, 100, 1)
	if b1.Name != "Baseline 1" || b1.TrainSize != 100 {
		t.Errorf("b1 = %+v", b1)
	}
	b2 := RunBaseline(ds, 0, 1)
	if b2.Name != "Baseline 2" || b2.TrainSize != b2.CandidateSize/5 {
		t.Errorf("b2 = %+v", b2)
	}
	// B2 trains on 10x the data and should not be (much) worse.
	if b2.Metrics.F1 < b1.Metrics.F1-15 {
		t.Errorf("B2 (%.1f) much worse than B1 (%.1f)", b2.Metrics.F1, b1.Metrics.F1)
	}
}

func TestEstimatorEfficiencyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline experiment")
	}
	rows, txt := EstimatorEfficiency([]Setup{NewSetup("Restaurants", 0.5, 0, 9)})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Pinned: the §6.2 estimator reads its reduction rules off the
	// matcher's own walk, and the row is the one a fresh walk gave.
	want := EstimatorEfficiencyRow{Dataset: "Restaurants", BaselineLabels: 2900, CorleoneLabels: 106,
		SavingsPct: 96.34482758620689, TrueF1: 99.09909909909909, BaselineF1: 100, OurEstF1: 99.08256880733944}
	if r != want {
		t.Errorf("row %+v, want %+v", r, want)
	}
	if r.CorleoneLabels >= r.BaselineLabels {
		t.Errorf("no savings: ours %d vs baseline %d", r.CorleoneLabels, r.BaselineLabels)
	}
	if !strings.Contains(txt, "Savings") {
		t.Error("missing savings column")
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "(empty)" {
		t.Errorf("sparkline(nil) = %q", got)
	}
	got := sparkline([]float64{0, 0.5, 1})
	if len([]rune(got)) != 3 {
		t.Errorf("sparkline length = %d", len([]rune(got)))
	}
}

func TestTextTable(t *testing.T) {
	tt := &textTable{header: []string{"a", "long-header"}}
	tt.add("x", "y")
	out := tt.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "---") {
		t.Errorf("textTable = %q", out)
	}
}

func TestVotingAblation(t *testing.T) {
	rows, txt := VotingAblation(300, 0.85, 3, 5)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 schemes", len(rows))
	}
	byName := map[string]VotingRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.AnswersPerPair < 2 {
			t.Errorf("%s: %.2f answers/pair, below the 2-answer floor", r.Scheme, r.AnswersPerPair)
		}
	}
	// The hybrid scheme's raison d'être: fewer false positives than 2+1.
	if byName["hybrid"].FalsePosRate > byName["2+1"].FalsePosRate {
		t.Errorf("hybrid FP %.1f%% should not exceed 2+1 FP %.1f%%",
			byName["hybrid"].FalsePosRate, byName["2+1"].FalsePosRate)
	}
	// And hybrid must be cheaper than always-strong.
	if byName["hybrid"].AnswersPerPair >= byName["strong"].AnswersPerPair {
		t.Errorf("hybrid %.2f answers/pair should undercut strong %.2f",
			byName["hybrid"].AnswersPerPair, byName["strong"].AnswersPerPair)
	}
	if !strings.Contains(txt, "spammers") {
		t.Error("missing rendering")
	}
}

func TestNoiseCostCurve(t *testing.T) {
	curve, txt := NoiseCostCurve([]float64{0, 0.2}, 40, 7)
	if curve[0.2] <= curve[0] {
		t.Errorf("noisier crowd should need more answers: %.2f vs %.2f", curve[0.2], curve[0])
	}
	if !strings.Contains(txt, "Answers") {
		t.Error("missing rendering")
	}
}

func TestALStrategyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	rows, txt := ALStrategyAblation("Restaurants", 0.4, 9)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ALStrategyRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	// Entropy selection must not lose to random on skewed data.
	if byName["entropy"].F1 < byName["random"].F1-2 {
		t.Errorf("entropy F1 %.1f below random %.1f", byName["entropy"].F1, byName["random"].F1)
	}
	if !strings.Contains(txt, "entropy") {
		t.Error("missing rendering")
	}
}

func TestStoppingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	rows, txt := StoppingAblation("Restaurants", 0.4, 10)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The fixed-40 variant must train for exactly 40 AL iterations; the
	// paper's patterns should stop earlier.
	if rows[1].ALIters != 40 {
		t.Errorf("fixed variant ran %d iterations", rows[1].ALIters)
	}
	if rows[0].ALIters >= rows[1].ALIters {
		t.Errorf("paper stopping (%d iters) should beat fixed-40", rows[0].ALIters)
	}
	if !strings.Contains(txt, "Stopping") {
		t.Error("missing rendering")
	}
}

func TestBudgetAllocationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	rows, txt := BudgetAllocationStudy("Restaurants", 0.4, 3.0, 11)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Spent > 4.5 {
			t.Errorf("%s spent $%.2f, far over the $3 allocation", r.Split, r.Spent)
		}
	}
	if !strings.Contains(txt, "Budget") {
		t.Error("missing rendering")
	}
}

func TestRuleCleaning(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	runs, err := RunAll([]Setup{NewSetup("Citations", 0.04, 0, 12)}, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, txt := RuleCleaning(runs)
	if len(rows) != 1 || rows[0].Evaluated == 0 {
		t.Errorf("rows = %+v", rows)
	}
	if !strings.Contains(txt, "Certified") {
		t.Error("missing rendering")
	}
}

func TestMoneyTimeTradeoff(t *testing.T) {
	rows, txt := MoneyTimeTradeoff(3000, 3, 24, 500)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Hours >= rows[i-1].Hours {
			t.Error("higher pay should complete faster")
		}
		if rows[i].Dollars <= rows[i-1].Dollars {
			t.Error("higher pay should cost more")
		}
	}
	if !strings.Contains(txt, "deadline") {
		t.Error("missing verdict")
	}
}

func TestDifficultySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	rows, txt := DifficultySweep("Restaurants", 0.4, []float64{0.5, 2.0}, 13)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Cleaner data must not be harder to match.
	if rows[0].F1 < rows[1].F1-1 {
		t.Errorf("0.5x noise F1 %.1f below 2x noise F1 %.1f", rows[0].F1, rows[1].F1)
	}
	if !strings.Contains(txt, "difficulty") {
		t.Error("missing rendering")
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func TestCrowdNoiseSensitivity(t *testing.T) {
	rows, text := CrowdNoiseSensitivity([]string{"Restaurants"}, map[string]float64{"Restaurants": 0.1}, 7)
	if len(rows) != 3 || !strings.Contains(text, "§9.3") {
		t.Fatalf("%d rows, want one per error rate (3):\n%s", len(rows), text)
	}
	for i, r := range rows {
		if r.Dataset != "Restaurants" || r.ErrorRate != []float64{0, 0.10, 0.20}[i] || !finite(r.F1) || !finite(r.Cost) {
			t.Errorf("row %d = %+v", i, r)
		}
	}
}

// TestParamSensitivity runs on Citations, where blocking triggers, so k,
// Pmin and t_B each reach the run.
func TestParamSensitivity(t *testing.T) {
	rows, text := ParamSensitivity("Citations", 0.03, 7)
	if len(rows) != 8 || !strings.Contains(text, "§9.4") {
		t.Fatalf("%d rows, want one per setting (8):\n%s", len(rows), text)
	}
	for i, r := range rows {
		if r.Param == "" || r.Value == "" || !finite(r.F1) || !finite(r.Cost) {
			t.Errorf("row %d = %+v", i, r)
		}
	}
}

package ruleeval

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/tree"
)

// fixture builds a sample of n pairs with vectors [x] where x < posCut
// means a true match, a ground truth to drive an oracle crowd, and a
// negative rule "x > thr -> No".
type fixture struct {
	pairs []record.Pair
	X     [][]float64
	truth *record.GroundTruth
}

func makeFixture(n int, matchEvery int) fixture {
	var f fixture
	var matches []record.Pair
	for i := 0; i < n; i++ {
		p := record.P(i, i)
		f.pairs = append(f.pairs, p)
		if matchEvery > 0 && i%matchEvery == 0 {
			f.X = append(f.X, []float64{1})
			matches = append(matches, p)
		} else {
			f.X = append(f.X, []float64{0})
		}
	}
	f.truth = record.NewGroundTruth(matches)
	return f
}

// rowsOf builds the row set {rows...} over [0, n).
func rowsOf(n int, rows ...int) *RowSet {
	s := NewRowSet(n)
	for _, i := range rows {
		s.Add(i)
	}
	return s
}

func negRule(thr float64) tree.Rule {
	return tree.Rule{Preds: []tree.Predicate{{Feature: 0, Op: tree.LE, Threshold: thr}}}
}

func posRule(thr float64) tree.Rule {
	return tree.Rule{
		Preds:    []tree.Predicate{{Feature: 0, Op: tree.GT, Threshold: thr}},
		Positive: true,
	}
}

func TestCover(t *testing.T) {
	f := makeFixture(10, 3)
	cov := MakeCandidates([]tree.Rule{negRule(0.5)}, f.X)[0].Coverage
	got := cov.AppendTo(nil)
	for _, i := range got {
		if f.X[i][0] > 0.5 {
			t.Errorf("index %d should not be covered", i)
		}
	}
	if want := []int{1, 2, 4, 5, 7, 8}; !reflect.DeepEqual(got, want) { // the non-matches among 0..9
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if cov.Len() != 6 || cov.Universe() != 10 {
		t.Errorf("coverage size %d over %d rows, want 6 over 10", cov.Len(), cov.Universe())
	}
}

func TestMakeCandidatesDropsEmpty(t *testing.T) {
	f := makeFixture(10, 3)
	cands := MakeCandidates([]tree.Rule{negRule(0.5), negRule(-1)}, f.X)
	if len(cands) != 1 {
		t.Errorf("candidates = %d, want 1 (empty coverage dropped)", len(cands))
	}
}

func TestSelectTopKRanking(t *testing.T) {
	// Rule A: coverage 4, one contradicted -> ub 0.75.
	// Rule B: coverage 2, none contradicted -> ub 1.0.
	cands := []Candidate{
		{Rule: negRule(1), Coverage: rowsOf(6, 0, 1, 2, 3)},
		{Rule: negRule(2), Coverage: rowsOf(6, 4, 5)},
	}
	top := SelectTopK(cands, rowsOf(6, 0), 2)
	if len(top) != 2 {
		t.Fatalf("topk = %d", len(top))
	}
	if top[0].Coverage.Len() != 2 {
		t.Error("uncontradicted rule should rank first")
	}
	// k larger than candidates returns all.
	if got := SelectTopK(cands, rowsOf(6), 10); len(got) != 2 {
		t.Errorf("overlarge k = %d results", len(got))
	}
	// Tie on upper bound breaks by larger coverage.
	tie := []Candidate{
		{Rule: negRule(1), Coverage: rowsOf(3, 0)},
		{Rule: negRule(2), Coverage: rowsOf(3, 1, 2)},
	}
	got := SelectTopK(tie, rowsOf(3), 1)
	if got[0].Coverage.Len() != 2 {
		t.Error("coverage tiebreak failed")
	}
}

func TestEvaluateJointKeepsPreciseRule(t *testing.T) {
	f := makeFixture(2000, 0) // no matches at all: the rule is perfect
	f.truth = record.NewGroundTruth([]record.Pair{record.P(5000, 5000)})
	runner := crowd.NewRunner(&crowd.Oracle{Truth: f.truth}, 0.01)
	rng := rand.New(rand.NewSource(1))
	cands := MakeCandidates([]tree.Rule{negRule(0.5)}, f.X)
	res := EvaluateJoint(rng, runner, f.pairs, cands, Defaults())
	if len(res) != 1 || !res[0].Kept {
		t.Fatalf("perfect rule not kept: %+v", res)
	}
	if res[0].Precision.Point != 1 {
		t.Errorf("precision = %v, want 1", res[0].Precision.Point)
	}
	if res[0].Sampled == 0 || res[0].Sampled > 100 {
		t.Errorf("sampled = %d, want a small batch count", res[0].Sampled)
	}
}

func TestEvaluateJointDropsImpreciseRule(t *testing.T) {
	// Every other example in the coverage is a true match: precision 0.5.
	f := makeFixture(2000, 2)
	// The rule covers everything (threshold 2 > all values).
	cands := MakeCandidates([]tree.Rule{negRule(2)}, f.X)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: f.truth}, 0.01)
	rng := rand.New(rand.NewSource(2))
	res := EvaluateJoint(rng, runner, f.pairs, cands, Defaults())
	if res[0].Kept {
		t.Error("half-precise rule must be dropped")
	}
	if res[0].Precision.Point > 0.8 {
		t.Errorf("precision estimate %v too high", res[0].Precision.Point)
	}
}

func TestEvaluateJointPositiveRule(t *testing.T) {
	f := makeFixture(2000, 2)
	// Positive rule: x > 0.5 -> Yes. Matches have x=1, so it is perfect.
	cands := MakeCandidates([]tree.Rule{posRule(0.5)}, f.X)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: f.truth}, 0.01)
	rng := rand.New(rand.NewSource(3))
	res := EvaluateJoint(rng, runner, f.pairs, cands, Defaults())
	if !res[0].Kept {
		t.Error("perfect positive rule should be kept")
	}
}

func TestEvaluateJointSharesLabels(t *testing.T) {
	// Two rules with identical coverage: joint evaluation should label
	// each sampled example once, feeding both rules.
	f := makeFixture(3000, 0)
	f.truth = record.NewGroundTruth([]record.Pair{record.P(9999, 9999)})
	cands := MakeCandidates([]tree.Rule{negRule(0.5), negRule(0.6)}, f.X)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: f.truth}, 0.01)
	rng := rand.New(rand.NewSource(4))
	res := EvaluateJoint(rng, runner, f.pairs, cands, Defaults())
	pairsLabeled := runner.Stats().Pairs
	totalSampled := res[0].Sampled + res[1].Sampled
	if pairsLabeled >= totalSampled {
		t.Errorf("no label sharing: %d pairs labeled for %d rule-samples",
			pairsLabeled, totalSampled)
	}
	for _, r := range res {
		if !r.Kept {
			t.Error("both perfect rules should be kept")
		}
	}
}

func TestEvaluateJointExhaustsSmallCoverage(t *testing.T) {
	// Coverage smaller than one batch: evaluation labels it exhaustively
	// and decides exactly.
	f := makeFixture(10, 0)
	f.truth = record.NewGroundTruth([]record.Pair{record.P(9999, 9999)})
	cands := MakeCandidates([]tree.Rule{negRule(0.5)}, f.X)
	runner := crowd.NewRunner(&crowd.Oracle{Truth: f.truth}, 0.01)
	rng := rand.New(rand.NewSource(5))
	res := EvaluateJoint(rng, runner, f.pairs, cands, Defaults())
	if !res[0].Kept {
		t.Error("perfect rule should be kept")
	}
	if res[0].Sampled != 10 {
		t.Errorf("sampled = %d, want 10 (exhausted)", res[0].Sampled)
	}
	if res[0].Precision.Margin != 0 {
		t.Errorf("exhausted margin = %v, want 0", res[0].Precision.Margin)
	}
}

func TestEvaluateJointBorderlineDropCaseB(t *testing.T) {
	// §4.2 case (b): margin small enough but P < Pmin -> drop.
	f := makeFixture(5000, 20) // 5% positives in coverage -> precision ~0.95... borderline
	cands := MakeCandidates([]tree.Rule{negRule(2)}, f.X)
	cfg := Defaults()
	cfg.PMin = 0.99 // force P < Pmin
	runner := crowd.NewRunner(&crowd.Oracle{Truth: f.truth}, 0.01)
	rng := rand.New(rand.NewSource(6))
	res := EvaluateJoint(rng, runner, f.pairs, cands, cfg)
	if res[0].Kept {
		t.Error("rule below Pmin should be dropped")
	}
}

func TestApplyKept(t *testing.T) {
	cov := func(rows ...int) *RowSet {
		s := NewRowSet(8)
		for _, r := range rows {
			s.Add(r)
		}
		return s
	}
	rs := []Result{
		{Kept: true, Candidate: Candidate{Rule: negRule(1), Coverage: cov(0, 1)}},
		{Kept: false, Candidate: Candidate{Rule: negRule(2), Coverage: cov(2, 3)}},
		{Kept: true, Candidate: Candidate{Rule: negRule(3), Coverage: cov(1, 4)}},
	}
	s := FullRowSet(8)
	got := ApplyKept(rs, s)
	if len(got) != 2 || got[0].Preds[0].Threshold != 1 || got[1].Preds[0].Threshold != 3 {
		t.Errorf("ApplyKept = %v, want the rules at thresholds 1 and 3", got)
	}
	if rows := s.AppendTo(nil); !reflect.DeepEqual(rows, []int{2, 3, 5, 6, 7}) {
		t.Errorf("rows left = %v, want [2 3 5 6 7]", rows)
	}
}

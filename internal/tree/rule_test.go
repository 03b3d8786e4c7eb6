package tree

import (
	"strings"
	"testing"
)

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || GT.String() != ">" {
		t.Error("Op.String wrong")
	}
}

func TestPredicateHolds(t *testing.T) {
	le := Predicate{Feature: 0, Op: LE, Threshold: 0.5}
	gt := Predicate{Feature: 0, Op: GT, Threshold: 0.5}
	if !le.Holds(0.5) || le.Holds(0.6) {
		t.Error("LE boundary wrong")
	}
	if gt.Holds(0.5) || !gt.Holds(0.6) {
		t.Error("GT boundary wrong")
	}
}

func TestRuleMatchesFuncShortCircuits(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: GT, Threshold: 0.5},
		{Feature: 1, Op: GT, Threshold: 0.5},
	}}
	calls := 0
	got := r.MatchesFunc(func(f int) float64 {
		calls++
		return 0 // first predicate fails
	})
	if got {
		t.Error("rule should not match")
	}
	if calls != 1 {
		t.Errorf("computed %d features, want 1 (short-circuit)", calls)
	}
}

func TestRuleFeatures(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 3, Op: LE, Threshold: 1},
		{Feature: 1, Op: GT, Threshold: 0},
		{Feature: 3, Op: GT, Threshold: 0.5},
	}}
	got := r.Features()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Features() = %v, want [1 3]", got)
	}
}

func TestRuleRender(t *testing.T) {
	r := Rule{
		Preds:    []Predicate{{Feature: 0, Op: LE, Threshold: 0.5}},
		Positive: false,
	}
	name := func(i int) string { return "isbn_match" }
	got := r.Render(name)
	if got != "(isbn_match <= 0.5) -> No" {
		t.Errorf("Render = %q", got)
	}
	r.Positive = true
	if !strings.HasSuffix(r.Render(name), "-> Yes") {
		t.Error("positive rule should render Yes")
	}
}

func TestRuleKeyCanonical(t *testing.T) {
	a := Rule{Preds: []Predicate{
		{Feature: 0, Op: LE, Threshold: 0.5},
		{Feature: 1, Op: GT, Threshold: 0.3},
	}}
	b := Rule{Preds: []Predicate{
		{Feature: 1, Op: GT, Threshold: 0.3},
		{Feature: 0, Op: LE, Threshold: 0.5},
	}}
	if a.Key() != b.Key() {
		t.Error("predicate order should not affect Key")
	}
	c := a
	c.Positive = true
	if a.Key() == c.Key() {
		t.Error("conclusion must affect Key")
	}
	d := Rule{Preds: []Predicate{{Feature: 0, Op: GT, Threshold: 0.5}}}
	if a.Key() == d.Key() {
		t.Error("different rules must have different keys")
	}
}

func TestSortPredsByCost(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: LE, Threshold: 1}, // expensive
		{Feature: 1, Op: LE, Threshold: 1}, // cheap
	}}
	costs := []float64{10, 1}
	r.SortPredsByCost(func(f int) float64 { return costs[f] })
	if r.Preds[0].Feature != 1 {
		t.Errorf("cheapest predicate should come first: %v", r.Preds)
	}
}

func TestEvalCost(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: LE, Threshold: 1},
		{Feature: 0, Op: GT, Threshold: 0}, // same feature, counted once
		{Feature: 2, Op: LE, Threshold: 1},
	}}
	got := r.EvalCost(func(f int) float64 { return float64(f + 1) })
	if got != 1+3 {
		t.Errorf("EvalCost = %v, want 4", got)
	}
}

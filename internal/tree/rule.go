// Package tree holds the rule algebra of Corleone's decision trees: a rule
// is a root-to-leaf path of one of the forest's trees, a conjunction of
// "feature <= threshold" / "feature > threshold" predicates ending in a
// match or no-match conclusion. Rules power blocking (§4.1 step 4),
// reduction (§6.2) and difficult-pair location (§7). The trees themselves
// are grown, scored, rendered and read for rules by package forest, in its
// packed layout.
package tree

import (
	"fmt"
	"sort"
	"strings"
)

// Op is a predicate comparison operator.
type Op int

const (
	// LE tests feature <= threshold (the left branch of a split).
	LE Op = iota
	// GT tests feature > threshold (the right branch).
	GT
)

// String renders the operator.
func (o Op) String() string {
	if o == LE {
		return "<="
	}
	return ">"
}

// Predicate is one condition along a root-to-leaf path.
type Predicate struct {
	Feature   int
	Op        Op
	Threshold float64
}

// Holds evaluates the predicate on a feature value.
func (p Predicate) Holds(v float64) bool {
	if p.Op == LE {
		return v <= p.Threshold
	}
	return v > p.Threshold
}

// String renders the predicate with the given name resolver.
func (p Predicate) Render(name func(int) string) string {
	return fmt.Sprintf("%s %s %.4g", name(p.Feature), p.Op, p.Threshold)
}

// Rule is a decision rule extracted from a tree: a conjunction of
// predicates ending in a match / no-match conclusion. Negative rules
// (Positive == false) are the paper's blocking and reduction rules;
// positive rules feed the Difficult Pairs' Locator (§7).
type Rule struct {
	Preds []Predicate
	// Positive is the rule's conclusion: true predicts "match".
	Positive bool
	// LeafPos and LeafNeg are the training counts at the source leaf; they
	// break ties when ranking candidate rules.
	LeafPos, LeafNeg int
}

// Matches reports whether the rule's antecedent holds on vector v — i.e.
// whether the rule "covers" the example (§4.2's cov(R, S) membership).
func (r Rule) Matches(v []float64) bool {
	for _, p := range r.Preds {
		if !p.Holds(v[p.Feature]) {
			return false
		}
	}
	return true
}

// MatchesFunc evaluates coverage with a lazy feature accessor, asking for
// features only until a predicate fails. Predicates are ordered cheapest
// feature first by SortPredsByCost, so a pair-at-a-time rule walk
// short-circuits on the cheap tests. (The blocker's production walk,
// shard.Verifier.RowSurvivors, makes the same requests a column at a time;
// this is the form its test oracle and the reference scans use.)
func (r Rule) MatchesFunc(get func(feature int) float64) bool {
	for _, p := range r.Preds {
		if !p.Holds(get(p.Feature)) {
			return false
		}
	}
	return true
}

// Features returns the distinct feature indices the rule references.
func (r Rule) Features() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.Preds {
		if !seen[p.Feature] {
			seen[p.Feature] = true
			out = append(out, p.Feature)
		}
	}
	sort.Ints(out)
	return out
}

// Render prints the rule in the paper's Figure 2.c style:
// "(isbn_match <= 0.5) -> No".
func (r Rule) Render(name func(int) string) string {
	parts := make([]string, len(r.Preds))
	for i, p := range r.Preds {
		parts[i] = "(" + p.Render(name) + ")"
	}
	concl := "No"
	if r.Positive {
		concl = "Yes"
	}
	return strings.Join(parts, " and ") + " -> " + concl
}

// Key returns a canonical string identifying the rule's logic, used to
// deduplicate rules extracted from different trees.
func (r Rule) Key() string {
	preds := make([]Predicate, len(r.Preds))
	copy(preds, r.Preds)
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Feature != preds[j].Feature {
			return preds[i].Feature < preds[j].Feature
		}
		if preds[i].Op != preds[j].Op {
			return preds[i].Op < preds[j].Op
		}
		return preds[i].Threshold < preds[j].Threshold
	})
	var b strings.Builder
	for _, p := range preds {
		fmt.Fprintf(&b, "%d%s%.9g;", p.Feature, p.Op, p.Threshold)
	}
	if r.Positive {
		b.WriteByte('+')
	} else {
		b.WriteByte('-')
	}
	return b.String()
}

// SortPredsByCost reorders the rule's predicates so that cheaper features
// are tested first (ties broken by feature index), enabling maximal
// short-circuiting in MatchesFunc and in the verifier's column walk.
func (r *Rule) SortPredsByCost(cost func(feature int) float64) {
	sort.SliceStable(r.Preds, func(i, j int) bool {
		ci, cj := cost(r.Preds[i].Feature), cost(r.Preds[j].Feature)
		//corlint:allow float-eq — deterministic sort comparator: exactly equal costs fall through to the feature-index tie-break
		if ci != cj {
			return ci < cj
		}
		return r.Preds[i].Feature < r.Preds[j].Feature
	})
}

// EvalCost returns the worst-case cost of applying the rule to one pair:
// the summed cost of its distinct features (§4.3's tuple-pair cost).
func (r Rule) EvalCost(cost func(feature int) float64) float64 {
	sum := 0.0
	for _, f := range r.Features() {
		sum += cost(f)
	}
	return sum
}

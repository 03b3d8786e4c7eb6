// Package locator implements §7, the Difficult Pairs' Locator: extract
// highly precise positive AND negative rules from the current matcher's
// forest, crowd-certify them, and remove every pair they cover — those
// pairs are "easy" because a precise rule already decides them. What
// remains is the difficult set C', on which the next iteration trains a
// fresh matcher.
package locator

import (
	"math/rand"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
	"github.com/corleone-em/corleone/internal/tree"
)

// The §7 size tests the paper fixes.
const (
	// MinDifficult is the smallest difficult set worth iterating on
	// (paper: 200).
	MinDifficult = 200
	// MaxFraction: if |C'| >= MaxFraction * |C| no meaningful reduction
	// happened and iteration stops (paper: 0.9).
	MaxFraction = 0.9
)

// Config carries the §7 settings a caller may set. The number of
// rules of each polarity sent to crowd evaluation is ruleeval.TopK.
type Config struct {
	// RuleEval configures crowd certification of the extracted rules.
	RuleEval ruleeval.Config
	// Seed is read by nothing: Locate draws from the caller's rng. It stays
	// because the benchmark's staged replay writes it (DESIGN.md §4).
	Seed int64
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{RuleEval: ruleeval.Defaults(), Seed: 1}
}

// Result reports the located difficult set.
type Result struct {
	// DifficultIdx are indices into the candidate set of the pairs not
	// covered by any certified rule.
	DifficultIdx []int
	// NegativeRules and PositiveRules are the certified rules applied.
	NegativeRules []tree.Rule
	PositiveRules []tree.Rule
	// Evaluated records all crowd evaluations (for the rule audit).
	Evaluated []ruleeval.Result
	// Proceed reports whether the difficult set passes the §7 size tests
	// and a new iteration should run.
	Proceed bool
	// Reason explains a false Proceed.
	Reason string
}

// Locate is LocateFrom with the rules of matcher f over X.
func Locate(rng *rand.Rand, runner *crowd.Runner, f *forest.Forest,
	pairs []record.Pair, X [][]float64, known []record.Labeled, cfg Config) *Result {
	negative, positive, _ := ruleeval.CoverByLeaf(f, X)
	return LocateFrom(rng, runner, negative, positive, pairs, known, cfg)
}

// LocateFrom runs the Difficult Pairs' Locator over the candidate set pairs,
// whose matcher's rules cover pairs as in negative and positive. known
// supplies already-labeled examples for the §4.2 upper-bound ranking.
func LocateFrom(rng *rand.Rand, runner *crowd.Runner, negative, positive []ruleeval.Candidate,
	pairs []record.Pair, known []record.Labeled, cfg Config) *Result {

	res := &Result{}

	// §7 step 1: certify top-k negative rules (contradicted by known
	// positives) and top-k positive rules (contradicted by known
	// negatives) exactly as in §4.2.
	topNeg := ruleeval.SelectTopK(negative, ruleeval.Contradicting(pairs, known, true), ruleeval.TopK)
	topPos := ruleeval.SelectTopK(positive, ruleeval.Contradicting(pairs, known, false), ruleeval.TopK)

	evalNeg := ruleeval.EvaluateJoint(rng, runner, pairs, topNeg, cfg.RuleEval)
	evalPos := ruleeval.EvaluateJoint(rng, runner, pairs, topPos, cfg.RuleEval)
	res.Evaluated = append(append([]ruleeval.Result{}, evalNeg...), evalPos...)

	// §7 step 2: the pairs no certified rule covers are the difficult set.
	difficult := ruleeval.FullRowSet(len(pairs))
	res.NegativeRules = ruleeval.ApplyKept(evalNeg, difficult)
	res.PositiveRules = ruleeval.ApplyKept(evalPos, difficult)
	res.DifficultIdx = difficult.AppendTo(nil)

	// §7 termination tests.
	switch {
	case len(res.DifficultIdx) < MinDifficult:
		res.Reason = "difficult set too small"
	case float64(len(res.DifficultIdx)) >= MaxFraction*float64(len(pairs)):
		res.Reason = "no significant reduction"
	default:
		res.Proceed = true
	}
	return res
}

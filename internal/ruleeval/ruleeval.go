// Package ruleeval implements §4.2: estimating the precision of candidate
// rules with crowd-labeled samples, keeping only highly precise ones. The
// same machinery evaluates blocking rules (§4), reduction rules (§6), and
// the positive/negative rules of the Difficult Pairs' Locator (§7).
//
// A rule's precision over a sample S is the fraction of the examples it
// covers whose true label agrees with the rule's conclusion. Precision is
// estimated by sequential sampling with finite-population error margins,
// and candidates are evaluated jointly so that one labeled example serves
// every rule that covers it.
package ruleeval

import (
	"math/bits"
	"math/rand"
	"sort"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/stats"
	"github.com/corleone-em/corleone/internal/tree"
)

// Candidate is a rule together with its coverage over the evaluation
// sample: the set of covered rows (§4.2's cov(R, S)).
type Candidate struct {
	Rule     tree.Rule
	Coverage *RowSet
}

// MakeCandidates computes coverages for all rules over X, dropping rules
// with empty coverage (nothing to evaluate, nothing to gain). Coverage bits
// are filled in parallel over 64-row blocks — one word of every rule per
// block, so a block's rows are read once for all rules. Each bit is a pure
// function of its own row, so the result is identical at every GOMAXPROCS.
func MakeCandidates(rules []tree.Rule, X [][]float64) []Candidate {
	n := len(X)
	covs := make([]*RowSet, len(rules))
	for i := range covs {
		covs[i] = NewRowSet(n)
	}
	par.For((n+63)/64, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			rows := X[w*64 : min(w*64+64, n)]
			for ri := range rules {
				var word uint64
				for b, v := range rows {
					if rules[ri].Matches(v) {
						word |= 1 << uint(b)
					}
				}
				covs[ri].words[w] = word
			}
		}
	})
	var out []Candidate
	for ri, cov := range covs {
		for _, w := range cov.words {
			cov.count += bits.OnesCount64(w)
		}
		if cov.count > 0 {
			out = append(out, Candidate{Rule: rules[ri], Coverage: cov})
		}
	}
	return out
}

// Contradicting builds §4.2's set T for rules that conclude !match: the
// rows of pairs holding the known examples labeled match (positives
// contradict a negative rule, negatives a positive one). Known examples
// outside pairs are ignored; a pair listed twice counts at its last row.
// Only the known labels are hashed, so the cost is one lookup per pair.
func Contradicting(pairs []record.Pair, known []record.Labeled, match bool) *RowSet {
	at := make(map[record.Pair]int, len(known))
	for _, l := range known {
		if l.Match == match {
			at[l.Pair] = -1
		}
	}
	out := NewRowSet(len(pairs))
	if len(at) == 0 {
		return out
	}
	for i, p := range pairs {
		if _, ok := at[p]; ok {
			at[p] = i
		}
	}
	for _, i := range at {
		if i >= 0 {
			out.Add(i)
		}
	}
	return out
}

// SelectTopK implements §4.2 step 1: rank candidates by the upper bound on
// precision |cov(R,S) − T| / |cov(R,S)|, where T is the set of examples
// already labeled by the crowd in a way that contradicts the rule's
// conclusion (labeled positive for a negative rule, and vice versa). Ties
// break by larger coverage. Returns the top k (all, if fewer).
func SelectTopK(cands []Candidate, contradicting *RowSet, k int) []Candidate {
	type scored struct {
		c  Candidate
		ub float64
	}
	ss := make([]scored, len(cands))
	for i, c := range cands {
		m := c.Coverage.Len()
		ss[i] = scored{c: c, ub: float64(m-c.Coverage.AndCount(contradicting)) / float64(m)}
	}
	sort.SliceStable(ss, func(i, j int) bool {
		//corlint:allow float-eq — deterministic sort comparator: exactly equal upper bounds fall through to the coverage tie-break
		if ss[i].ub != ss[j].ub {
			return ss[i].ub > ss[j].ub
		}
		return ss[i].c.Coverage.Len() > ss[j].c.Coverage.Len()
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]Candidate, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].c
	}
	return out
}

// Config carries the §4.2 evaluation parameters.
type Config struct {
	// Batch is b, the number of examples labeled per round (paper: 20).
	Batch int
	// PMin is the precision threshold for keeping a rule (paper: 0.95).
	PMin float64
	// EpsMax is the maximum tolerated error margin (paper: 0.05).
	EpsMax float64
	// Confidence is the interval confidence level (paper: 0.95).
	Confidence float64
	// Policy is the voting scheme for crowd labels; rule evaluation is
	// sensitive to false positives, so the hybrid scheme is the default.
	Policy crowd.Policy
	// StopEarly, when non-nil, is polled between batches; returning true
	// aborts evaluation, dropping any undecided rules (budget cap).
	StopEarly func() bool
}

// Defaults returns the paper's parameters.
func Defaults() Config {
	return Config{Batch: 20, PMin: 0.95, EpsMax: 0.05, Confidence: 0.95, Policy: crowd.PolicyHybrid}
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 20
	}
	if c.PMin <= 0 {
		c.PMin = 0.95
	}
	if c.EpsMax <= 0 {
		c.EpsMax = 0.05
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.95
	}
	return c
}

// Result is the outcome of evaluating one candidate.
type Result struct {
	Candidate Candidate
	// Precision is the final estimate with its error margin.
	Precision stats.Interval
	// Kept reports whether the rule passed (P >= PMin with eps <= EpsMax).
	Kept bool
	// Sampled is how many covered examples were labeled for this rule
	// (including reused ones).
	Sampled int
}

// EvaluateJoint estimates the precision of every candidate, sampling from
// the union of the active rules' coverages so labels are shared (§4.2's
// joint evaluation). pairs maps sample indices to tuple pairs for the
// crowd; runner provides (cached, voted) labels. The rng drives sampling
// and must be seeded by the caller for determinism.
func EvaluateJoint(rng *rand.Rand, runner *crowd.Runner, pairs []record.Pair,
	cands []Candidate, cfg Config) []Result {

	cfg = cfg.withDefaults()
	results := make([]Result, len(cands))
	type state struct {
		n, correct int  // labeled examples in coverage; those agreeing with the rule
		done       bool // decided (kept or dropped)
	}
	states := make([]state, len(cands))
	labeled := NewRowSet(len(pairs)) // rows already labeled

	// absorb feeds a labeled example into every covering rule's tally. The
	// tallies are independent counters, so visiting the rules in candidate
	// order gives what any other order would.
	absorb := func(idx int, match bool) {
		labeled.Add(idx)
		for ci := range cands {
			if states[ci].done || !cands[ci].Coverage.Has(idx) {
				continue
			}
			states[ci].n++
			if match == cands[ci].Rule.Positive {
				states[ci].correct++
			}
		}
	}

	// decide applies the §4.2 stopping rules to candidate ci; returns true
	// if the rule's fate is settled.
	decide := func(ci int) bool {
		st := &states[ci]
		m := cands[ci].Coverage.Len()
		iv := stats.EstimateProportion(st.correct, st.n, m, cfg.Confidence)
		results[ci].Precision = iv
		results[ci].Sampled = st.n
		switch {
		case iv.Point >= cfg.PMin && iv.Margin <= cfg.EpsMax:
			results[ci].Kept = true
			st.done = true
		case iv.Point+iv.Margin < cfg.PMin:
			st.done = true
		case iv.Margin <= cfg.EpsMax && iv.Point < cfg.PMin:
			st.done = true
		case st.n >= m:
			// Coverage exhausted: the estimate is exact (margin 0 via the
			// finite-population correction); keep iff it clears PMin.
			results[ci].Kept = iv.Point >= cfg.PMin
			st.done = true
		}
		return st.done
	}

	for ci := range cands {
		results[ci].Candidate = cands[ci]
	}

	// The pool of a round is the unlabeled rows in the union of the active
	// coverages; its ascending enumeration is the sorted base order the
	// sampler draws from.
	pool := NewRowSet(len(pairs))
	var sampler RowSampler
	for {
		pool.Clear()
		for ci, c := range cands {
			if !states[ci].done {
				pool.Or(c.Coverage)
			}
		}
		pool.AndNot(labeled)
		if pool.Len() == 0 {
			break
		}
		for _, idx := range sampler.Draw(rng, pool, cfg.Batch) {
			absorb(idx, runner.Label(pairs[idx], cfg.Policy))
		}
		active := 0
		for ci := range cands {
			if states[ci].done {
				continue
			}
			if !decide(ci) {
				active++
			}
		}
		if active == 0 {
			break
		}
		if cfg.StopEarly != nil && cfg.StopEarly() {
			break
		}
	}
	// Finalize estimates for any rule decided on the last pass.
	for ci := range cands {
		if results[ci].Sampled == 0 && states[ci].n > 0 {
			decide(ci)
		}
	}
	return results
}

// Kept filters the evaluation results down to the rules that passed.
func Kept(results []Result) []tree.Rule {
	var out []tree.Rule
	for _, r := range results {
		if r.Kept {
			out = append(out, r.Candidate.Rule)
		}
	}
	return out
}

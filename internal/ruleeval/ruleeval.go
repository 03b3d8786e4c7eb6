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
	"github.com/corleone-em/corleone/internal/forest"
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
// with empty coverage (nothing to evaluate, nothing to gain), by testing
// every rule's predicates on every row. It is the reference for rules that
// have no forest to walk — hand-written rules, the differential tests; the
// pipeline's rules are all leaves of a forest and go through CoverByLeaf.
// Coverage bits are filled in parallel over 64-row blocks, and each bit is a
// pure function of its own row, so the result is identical at every
// GOMAXPROCS.
func MakeCandidates(rules []tree.Rule, X [][]float64) []Candidate {
	n := len(X)
	covs := newCoverages(len(rules), n)
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
	return nonEmpty(rules, covs)
}

// CoverByLeaf computes what MakeCandidates does for both halves of
// f.Rules(), in one walk of X through f instead of a predicate test per rule
// and row. A rule of a forest is a root-to-leaf path, so on a row whose
// features are ordered numbers it matches exactly when the row reaches its
// leaf: the leaves of a tree partition the rows, each row sets at most one
// bit per tree, and the cost is the k walks of Forest.Predict whatever the
// number of rules. Rules() keeps one rule per Key(), the first-seen leaf's,
// so only that leaf stands for the rule; a later leaf sharing the key may
// differ past the key's nine digits and adds nothing. The candidates come in
// Rules() order with empty coverages dropped, as MakeCandidates returns them.
// match[i] is f.Predict(X[i]): over half of row i's k leaves vote "match".
//
// The equivalence needs NaN-free rows: the walk sends a NaN right, as
// Predict does, while Rule.Matches fails it on both "<=" and ">".
// Extractor.Vectors never emits one (feature.TestVectorsNeverNaN) and a
// trained threshold is the midpoint of two feature values; Missing (-1), -0
// and ±Inf are ordinary ordered values.
func CoverByLeaf(f *forest.Forest, X [][]float64) (negative, positive []Candidate, match []bool) {
	neg, pos, negLeaf, posLeaf := f.RuleLeaves()
	ruleOf := make([]int32, f.NumNodes()) // leaf → index into neg ++ pos, -1 for none
	for i := range ruleOf {
		ruleOf[i] = -1
	}
	for i, leaf := range negLeaf {
		ruleOf[leaf] = int32(i)
	}
	for i, leaf := range posLeaf {
		ruleOf[leaf] = int32(len(neg) + i)
	}
	n, k := len(X), f.NumTrees()
	covs := newCoverages(len(neg)+len(pos), n)
	match = make([]bool, n)
	par.For((n+63)/64, func(lo, hi int) {
		leaves := make([]int32, 64*k) // one block's leaves, reused down the chunk
		for w := lo; w < hi; w++ {
			coverBlock(f, X[w*64:min(w*64+64, n)], ruleOf, covs, w, leaves, match[w*64:])
		}
	})
	return nonEmpty(neg, covs[:len(neg)]), nonEmpty(pos, covs[len(neg):]), match
}

// coverBlock walks one 64-row block through every tree, sets each row's bit
// in word w of the rule its leaf stands for and each row's vote in match.
// Both belong to this block alone, so blocks run concurrently.
func coverBlock(f *forest.Forest, rows [][]float64, ruleOf []int32, covs []RowSet, w int, leaves []int32, match []bool) {
	f.LeavesInto(rows, leaves)
	k := f.NumTrees()
	for b := range rows {
		votes := 0
		for _, leaf := range leaves[b*k : b*k+k] {
			if r := ruleOf[leaf]; r >= 0 {
				covs[r].words[w] |= 1 << uint(b)
			}
			if f.LeafMatch(leaf) {
				votes++
			}
		}
		match[b] = 2*votes > k
	}
}

// newCoverages returns one empty coverage per rule. The headers share a
// block — a kept candidate pins 40 bytes per sibling — the words do not.
func newCoverages(rules, n int) []RowSet {
	covs := make([]RowSet, rules)
	for i := range covs {
		covs[i] = *NewRowSet(n)
	}
	return covs
}

// nonEmpty counts the filled coverages and pairs the non-empty ones with
// their rules.
func nonEmpty(rules []tree.Rule, covs []RowSet) []Candidate {
	var out []Candidate
	for ri := range covs {
		cov := &covs[ri]
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
// outside pairs are ignored. Ascending order is detected, not required: the
// strictly ascending prefix of pairs — all of it for a candidate set or a
// subset of one, all but the few user seeds appended to the blocker's sample
// — is binary-searched, the rest scanned from the back. A pair listed twice
// therefore still counts at its last row (the prefix holds no pair twice),
// and the cost is one comparison per pair and a search per known example,
// with no |pairs|-entry hashing.
func Contradicting(pairs []record.Pair, known []record.Labeled, match bool) *RowSet {
	out := NewRowSet(len(pairs))
	sorted := min(1, len(pairs))
	for sorted < len(pairs) && pairs[sorted-1].Less(pairs[sorted]) {
		sorted++
	}
	for _, l := range known {
		if l.Match != match {
			continue
		}
		i := len(pairs) - 1
		for i >= sorted && pairs[i] != l.Pair {
			i--
		}
		if i < sorted {
			i = sort.Search(sorted, func(j int) bool { return !pairs[j].Less(l.Pair) })
			if i == sorted || pairs[i] != l.Pair {
				continue
			}
		}
		out.Add(i)
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

// The §4.2 evaluation parameters the paper fixes. Estimation (§6) and the
// Difficult Pairs' Locator (§7) certify rules with the same ones, and
// estimation targets the same margin for precision and recall. The
// confidence δ = 0.95 of every interval is fixed in stats.
const (
	// Batch is b, the number of examples labeled per round (paper: 20).
	Batch = 20
	// EpsMax is εmax, the maximum tolerated error margin (paper: 0.05).
	EpsMax = 0.05
	// Policy is the voting scheme for crowd labels; rule evaluation and
	// estimation are sensitive to false positives, so they use the hybrid
	// scheme (§8.2).
	Policy = crowd.PolicyHybrid
	// TopK is k, the number of candidate rules sent to crowd evaluation
	// per step — in blocking, estimation and the locator alike (paper: 20).
	TopK = 20
)

// Config carries the §4.2 evaluation parameter a caller may set; the §9.4
// sweep varies it.
type Config struct {
	// PMin is the precision threshold for keeping a rule (paper: 0.95).
	PMin float64
}

// Defaults returns the paper's parameters.
func Defaults() Config { return Config{PMin: 0.95} }

func (c Config) withDefaults() Config {
	if c.PMin <= 0 {
		c.PMin = Defaults().PMin
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
		iv := stats.EstimateProportion(st.correct, st.n, m)
		results[ci].Precision = iv
		results[ci].Sampled = st.n
		switch {
		case iv.Point >= cfg.PMin && iv.Margin <= EpsMax:
			results[ci].Kept = true
			st.done = true
		case iv.Point+iv.Margin < cfg.PMin:
			st.done = true
		case iv.Margin <= EpsMax && iv.Point < cfg.PMin:
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
		for _, idx := range sampler.Draw(rng, pool, Batch) {
			absorb(idx, runner.Label(pairs[idx], Policy))
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
		if runner.Stopped() {
			break // undecided rules are dropped (budget cap)
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

// ApplyKept applies the certified rules of results to s: it removes from s
// the coverage of every rule that passed and returns those rules, in result
// order.
func ApplyKept(results []Result, s *RowSet) []tree.Rule {
	var kept []tree.Rule
	for _, r := range results {
		if r.Kept {
			kept = append(kept, r.Candidate.Rule)
			s.AndNot(r.Candidate.Coverage)
		}
	}
	return kept
}

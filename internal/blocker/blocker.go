// Package blocker implements §4: crowdsourced blocking. It decides whether
// blocking is needed (|A×B| > t_B), draws the sample S, learns a random
// forest over S with crowdsourced active learning, extracts candidate
// negative rules, has the crowd evaluate the top k, greedily selects a
// subset to execute, and applies it to the full Cartesian product in
// parallel to produce the umbrella set of candidate pairs.
package blocker

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/corleone-em/corleone/internal/active"
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/tree"
)

// Config carries the §4 parameters.
type Config struct {
	// TB is t_B: blocking triggers when |A×B| exceeds it, and the umbrella
	// set is steered toward it (paper: 3,000,000; scaled runs override).
	TB int
	// TopK is the number of candidate rules sent to crowd evaluation
	// (paper: ruleeval.TopK; the §9.4 sweep varies it).
	TopK int
	// Active configures the active learning run over S.
	Active active.Config
	// RuleEval configures crowd rule evaluation.
	RuleEval ruleeval.Config
	// Seed drives sampling.
	Seed int64
	// Sink, when non-nil, receives the umbrella set as a bounded-memory
	// stream of pair chunks (deterministic (a, b)-lexicographic order)
	// instead of a materialized Result.Candidates slice, which is then left
	// nil. See Sink's contract for chunk-reuse rules.
	Sink Sink
	// ShardStats, when non-nil, accumulates an index plan's probe counts:
	// Dispatched gains one per shard.TaskBlockRows rows of table A probed,
	// Candidates the pairs the index handed the verifier. A scan counts
	// nothing. runsvc's /metrics reads them live.
	ShardStats *shard.Stats
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{
		TB:       3_000_000,
		TopK:     ruleeval.TopK,
		Active:   active.Defaults(),
		RuleEval: ruleeval.Defaults(),
		Seed:     1,
	}
}

// Result reports everything the Blocker did.
type Result struct {
	// Triggered is false when |A×B| <= t_B and blocking was skipped.
	Triggered bool
	// CartesianSize is |A×B|.
	CartesianSize int64
	// SampleSize is |S|.
	SampleSize int
	// Sample is S itself (pairs), retained for audits and tests.
	Sample []record.Pair
	// CandidateRuleCount is the number of negative rules extracted from
	// the forest (the paper sees up to 8943).
	CandidateRuleCount int
	// Evaluated holds the crowd evaluation outcome for each top-k rule.
	Evaluated []ruleeval.Result
	// Selected is the rule subset actually applied to A×B.
	Selected []tree.Rule
	// Plan explains how Selected was applied to A×B: index probes or the
	// exhaustive scan, and why. Zero when blocking did not trigger.
	Plan Plan
	// Candidates is the umbrella set: the pairs surviving blocking.
	Candidates []record.Pair
	// Training is the labeled data acquired (or reused) while learning the
	// blocking forest; the matcher can warm-start from it.
	Training []record.Labeled
	// ALTrace is the active-learning diagnostic trace.
	ALTrace active.Trace
}

// Run executes the blocking step for the dataset.
func Run(ds *record.Dataset, ex *feature.Extractor, runner *crowd.Runner, cfg Config) (*Result, error) {
	d := Defaults()
	if cfg.TB <= 0 {
		cfg.TB = d.TB
	}
	if cfg.TopK <= 0 {
		cfg.TopK = d.TopK
	}
	res := &Result{CartesianSize: ds.CartesianSize()}

	// Step 1 (§4.1): decide whether to block at all.
	if res.CartesianSize <= int64(cfg.TB) {
		if cfg.Sink != nil {
			emitAllPairs(ds, cfg.Sink)
		} else {
			res.Candidates = allPairs(ds)
		}
		return res, nil
	}
	res.Triggered = true

	// Step 2 (§4.1): take the sample S — the smaller table crossed with a
	// random slice of the larger, sized so |S| ≈ t_B, plus the user seeds.
	rng := rand.New(rand.NewSource(cfg.Seed))
	S, drawn := samplePairs(rng, ds, cfg.TB)
	// Membership in S needs no |S|-entry set: the drawn part is a cross
	// product, so it is a test on the pair's sampled-side row, and the rest
	// is the handful of user seeds.
	inS := func(p record.Pair) bool { return drawn(p) || labeledHas(ds.Seeds, p) }
	for i, s := range ds.Seeds {
		if !drawn(s.Pair) && !labeledHas(ds.Seeds[:i], s.Pair) {
			S = append(S, s.Pair)
		}
	}
	res.SampleSize = len(S)
	res.Sample = S

	// Step 3 (§4.1): crowdsourced active learning over S.
	X := ex.Vectors(S)
	seedX := make([][]float64, len(ds.Seeds))
	for i, s := range ds.Seeds {
		seedX[i] = ex.Vector(s.Pair)
	}
	acfg := cfg.Active
	acfg.Seed = cfg.Seed
	runner.SeedLabels(ds.Seeds)
	learned, err := active.Learn(runner, S, X, ds.Seeds, seedX, acfg)
	if err != nil {
		return nil, fmt.Errorf("blocker: active learning: %w", err)
	}
	res.Training = learned.Training
	res.ALTrace = learned.Trace

	// Step 4 (§4.1): extract candidate blocking rules (negative rules),
	// with their coverage of S from one walk of X through the forest. Every
	// leaf holds a bootstrapped training row, and every training row is in
	// S, so no rule's coverage is empty and the candidates are all of them.
	cands, _, _ := ruleeval.CoverByLeaf(learned.Forest, X)
	res.CandidateRuleCount = len(cands)
	for i := range cands {
		cands[i].Rule.SortPredsByCost(ex.Cost)
	}

	// §4.2 step 1: select the top k rules by the upper bound on precision,
	// where T is the set of S-examples the crowd labeled positive.
	top := ruleeval.SelectTopK(cands, ruleeval.Contradicting(S, learned.Training, true), cfg.TopK)

	// §4.2 step 2: evaluate the selected rules jointly with the crowd.
	res.Evaluated = ruleeval.EvaluateJoint(rng, runner, S, top, cfg.RuleEval)

	// §4.3: greedily choose the subset of surviving rules to execute.
	// Rules covering a crowd-labeled positive are excluded outright: we
	// know they destroy recall, and the sequential sampling of §4.2 cannot
	// see rare positives in a skewed sample. Because a single noisy 2+1
	// label would otherwise veto a perfect rule, each contradicting
	// positive is first re-verified under the strong-majority scheme
	// (§8.2's false-positive analysis).
	var verified []record.Labeled
	for _, l := range runner.AllLabeled() {
		if l.Match && inS(l.Pair) && runner.Label(l.Pair, crowd.PolicyStrong) {
			verified = append(verified, l)
		}
	}
	kept := keptResults(res.Evaluated)
	kept = dropContradicted(kept, ruleeval.Contradicting(S, verified, true), 0.1)
	res.Selected = greedySelect(kept, X, len(ds.A.Rows), len(ds.B.Rows), cfg.TB, ex.Cost)

	// Apply the selected rules to A×B: the planner generates candidates
	// through index probes when a selected rule can anchor them, and visits
	// every cell otherwise.
	sink := cfg.Sink
	if sink == nil {
		sink = collectSink(&res.Candidates)
	}
	res.Plan = applyRulesTo(ds, ex, res.Selected, cfg.ShardStats, sink)
	return res, nil
}

// samplePairs draws S: the smaller table crossed with ~t_B/|smaller| rows
// sampled uniformly from the larger table (§4.1 step 2), in (a, b) order.
// The second result reports whether a pair of the dataset is in S.
func samplePairs(rng *rand.Rand, ds *record.Dataset, tb int) ([]record.Pair, func(record.Pair) bool) {
	na, nb := ds.A.Len(), ds.B.Len()
	if na <= nb {
		rows := sampleRows(rng, nb, max(tb/na, 1))
		out := make([]record.Pair, 0, na*len(rows))
		for a := 0; a < na; a++ {
			for _, b := range rows {
				out = append(out, record.P(a, b))
			}
		}
		return out, func(p record.Pair) bool { return hasRow(rows, int(p.B)) }
	}
	rows := sampleRows(rng, na, max(tb/nb, 1))
	out := make([]record.Pair, 0, nb*len(rows))
	for _, a := range rows {
		for b := 0; b < nb; b++ {
			out = append(out, record.P(a, b))
		}
	}
	return out, func(p record.Pair) bool { return hasRow(rows, int(p.A)) }
}

// sampleRows draws k of n rows uniformly, returned in ascending order.
func sampleRows(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	rows := perm[:k]
	sort.Ints(rows)
	return rows
}

func labeledHas(ls []record.Labeled, p record.Pair) bool {
	for _, l := range ls {
		if l.Pair == p {
			return true
		}
	}
	return false
}

func hasRow(sorted []int, r int) bool {
	i := sort.SearchInts(sorted, r)
	return i < len(sorted) && sorted[i] == r
}

// dropContradicted removes kept rules that cover more than maxFrac of the
// verified positive examples. Sequential sampling certifies a rule's
// precision but, under extreme skew, cannot see the handful of true matches
// a huge rule would destroy; the verified positives are a direct recall
// signal. A rule clipping one borderline positive is tolerated (the paper
// accepts ~8% blocking recall loss on Products); a rule swallowing a fifth
// or more of all known matches is not.
func dropContradicted(kept []ruleeval.Result, positives *ruleeval.RowSet, maxFrac float64) []ruleeval.Result {
	if positives.Len() == 0 {
		return kept
	}
	limit := maxFrac * float64(positives.Len())
	var out []ruleeval.Result
	for _, r := range kept {
		if float64(r.Candidate.Coverage.AndCount(positives)) <= limit {
			out = append(out, r)
		}
	}
	return out
}

func keptResults(results []ruleeval.Result) []ruleeval.Result {
	var out []ruleeval.Result
	for _, r := range results {
		if r.Kept {
			out = append(out, r)
		}
	}
	return out
}

// greedySelect implements §4.3: choose the subset of certified rules whose
// surviving set is the LARGEST one not exceeding t_B — reduce enough, but
// overshooting t_B eliminates true positives for no benefit. Working on the
// sample S (target = |S| · t_B / |A×B|), it greedily applies the best
// "safe" rule (one that keeps the survivor count at or above target),
// ranked by precision, marginal-coverage-per-cost, and coverage; when only
// overshooting rules remain, it applies the one landing closest to the
// target and stops. Rules whose marginal coverage is under 0.5% of the
// survivors are ignored as useless (the paper applies 1–3 rules).
func greedySelect(kept []ruleeval.Result, X [][]float64, na, nb, tb int,
	cost func(int) float64) []tree.Rule {

	if len(kept) == 0 {
		return nil
	}
	cartesian := float64(na) * float64(nb)
	target := int(float64(len(X)) * (float64(tb) / cartesian))

	alive := ruleeval.FullRowSet(len(X))
	used := make([]bool, len(kept))
	var selected []tree.Rule

	apply := func(i int) {
		used[i] = true
		selected = append(selected, kept[i].Candidate.Rule)
		alive.AndNot(kept[i].Candidate.Coverage)
	}

	for alive.Len() > target {
		aliveCount := alive.Len()
		bestSafe, bestOver := -1, -1
		var safeKey [3]float64 // precision, coverage-per-cost, coverage
		overLanding := -1
		minUseful := aliveCount / 200 // ignore <0.5% marginal coverage
		for i, r := range kept {
			if used[i] {
				continue
			}
			cov := r.Candidate.Coverage.AndCount(alive)
			if cov <= minUseful {
				continue
			}
			landing := aliveCount - cov
			if landing >= target {
				c := r.Candidate.Rule.EvalCost(cost)
				if c <= 0 {
					c = 1
				}
				key := [3]float64{r.Precision.Point, float64(cov) / c, float64(cov)}
				if bestSafe < 0 || keyLess(safeKey, key) {
					bestSafe, safeKey = i, key
				}
			} else if landing > overLanding {
				bestOver, overLanding = i, landing
			}
		}
		switch {
		case bestSafe >= 0:
			apply(bestSafe)
		case bestOver >= 0:
			// Every useful rule overshoots; take the gentlest and stop.
			apply(bestOver)
			return selected
		default:
			return selected // no useful rules left
		}
	}
	return selected
}

// keyLess reports whether a < b lexicographically.
func keyLess(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

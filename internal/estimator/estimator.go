// Package estimator implements §6: crowd-based estimation of the matcher's
// precision and recall within a target error margin. The baseline method
// (§6.1) samples the candidate set directly and needs enormous samples when
// matches are rare; Corleone's method (§6.2) interleaves sampling with
// "reduction" — applying crowd-certified negative rules extracted from the
// matcher's own forest to eliminate negatives and concentrate the positives
// — re-optimizing its plan after every partial execution, like mid-query
// re-optimization in an RDBMS.
package estimator

import (
	"math"
	"math/rand"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/ruleeval"
	"github.com/corleone-em/corleone/internal/stats"
	"github.com/corleone-em/corleone/internal/tree"
)

// LabelBatch is b, the examples labeled per probe (paper: 50). The target
// margin, confidence, k and voting policy are rule evaluation's (ruleeval's
// EpsMax, Confidence, TopK and Policy).
const LabelBatch = 50

// Config carries the §6 settings a caller may set.
type Config struct {
	// RuleEval configures crowd evaluation of chosen reduction rules.
	RuleEval ruleeval.Config
	// MaxLabels caps total labels spent by the estimator (safety valve;
	// 0 means unlimited).
	MaxLabels int
	// Seed is read by nothing: Estimate draws from the caller's rng. It
	// stays because the benchmark's staged replay writes it (DESIGN.md §4).
	Seed int64
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{RuleEval: ruleeval.Defaults(), Seed: 1}
}

// Result is the estimator's output.
type Result struct {
	// Precision and Recall are the final estimates with margins.
	Precision stats.Interval
	Recall    stats.Interval
	// F1 is computed from the point estimates, in percent.
	F1 float64
	// LabelsUsed counts distinct examples labeled during estimation
	// (cache hits included).
	LabelsUsed int
	// RulesApplied is the crowd-certified reduction rules executed.
	RulesApplied []tree.Rule
	// RulesEvaluated counts rules sent to crowd evaluation.
	RulesEvaluated int
	// FinalSetSize is |C'| after all reductions.
	FinalSetSize int
	// Probes is the number of probe-sample batches taken.
	Probes int
	// Trace records one line per probe-eval-reduce decision for
	// diagnostics: alive set size, density estimate, option chosen.
	Trace []TraceStep
}

// TraceStep is one loop decision in the §6.2 search.
type TraceStep struct {
	Alive      int
	Density    float64
	ChoseRules int
	RulesKept  int
	PMargin    float64
	RMargin    float64
}

// EstimateBaseline implements the §6.1 method: plain incremental random
// sampling of C with no reduction, stopping when both margins reach
// ruleeval.EpsMax (or the set is exhausted). It exists as the comparison
// point for the §9.3 sample-efficiency experiment.
func EstimateBaseline(rng *rand.Rand, runner *crowd.Runner, pairs []record.Pair,
	predictions []bool, cfg Config) *Result {

	res := &Result{}
	order := rng.Perm(len(pairs))
	var nPP, nAP, nTP, n int
	totalPP := 0
	for _, p := range predictions {
		if p {
			totalPP++
		}
	}
	for i := 0; i < len(order); i++ {
		idx := order[i]
		match := runner.Label(pairs[idx], ruleeval.Policy)
		res.LabelsUsed++
		n++
		if predictions[idx] {
			nPP++
		}
		if match {
			nAP++
		}
		if predictions[idx] && match {
			nTP++
		}
		if cfg.MaxLabels > 0 && res.LabelsUsed >= cfg.MaxLabels {
			break
		}
		if n%LabelBatch == 0 && runner.Stopped() {
			break
		}
		if n%LabelBatch != 0 {
			continue
		}
		p, ep := prf(nTP, nPP, totalPP, ruleeval.Confidence)
		r, er := prf(nTP, nAP, 0, ruleeval.Confidence)
		if ep <= ruleeval.EpsMax && er <= ruleeval.EpsMax {
			res.Precision = stats.Interval{Point: p, Margin: ep}
			res.Recall = stats.Interval{Point: r, Margin: er}
			res.F1 = 100 * stats.F1(p, r)
			res.FinalSetSize = len(pairs)
			return res
		}
	}
	p, ep := prf(nTP, nPP, totalPP, ruleeval.Confidence)
	r, er := prf(nTP, nAP, 0, ruleeval.Confidence)
	res.Precision = stats.Interval{Point: p, Margin: ep}
	res.Recall = stats.Interval{Point: r, Margin: er}
	res.F1 = 100 * stats.F1(p, r)
	res.FinalSetSize = len(pairs)
	return res
}

// minDenominator is the smallest sample count (of predicted or actual
// positives) for which the Wald margin is trusted. At p = 0 or 1 the Wald
// interval degenerates to zero width, so one lucky positive would fake
// convergence; requiring a handful of observations is the standard np >= 5
// rule of thumb. Exhausted populations are exempt — their estimates are
// exact by enumeration.
const minDenominator = 5

// prf computes a ratio k/n with its §6.1 margin; population 0 disables the
// finite-population correction. Margins from fewer than minDenominator
// observations are reported as +Inf unless the sample exhausts the
// population.
func prf(k, n, population int, conf float64) (float64, float64) {
	if n == 0 {
		return 0, math.Inf(1)
	}
	p := float64(k) / float64(n)
	if n < minDenominator && (population <= 0 || n < population) {
		return p, math.Inf(1)
	}
	return p, stats.ProportionMargin(p, n, population, conf)
}

// Estimate runs Corleone's probe-eval-reduce estimator (§6.2) for matcher
// f applied to candidate set (pairs, X) with the given predictions. known
// supplies already-labeled examples whose positives seed the rule ranking's
// contradiction set.
func Estimate(rng *rand.Rand, runner *crowd.Runner, f *forest.Forest,
	pairs []record.Pair, X [][]float64, predictions []bool,
	known []record.Labeled, cfg Config) *Result {

	res := &Result{}

	// Candidate reduction rules: negative rules from the matcher's forest,
	// ranked by the §4.2 precision upper bound (contradicted by known
	// positives), top k kept — but NOT yet crowd-evaluated (§6.2 step 1).
	contradicting := ruleeval.Contradicting(pairs, known, true)
	// Rank ALL candidate rules by the §4.2 upper bound; the search below
	// considers them in rank order, at most TopK at a time, pulling deeper
	// into the ranking only when the earlier rules are used up and
	// reduction still beats sampling (mid-execution re-optimization).
	allCands, _ := ruleeval.CoverByLeaf(f, X)
	cands := ruleeval.SelectTopK(allCands, contradicting, len(allCands))

	// State: alive examples (C'), accumulated uniform sample with labels.
	n := len(pairs)
	alive := ruleeval.FullRowSet(n)
	pp := ruleeval.NewRowSet(n) // predicted positives
	for i, pred := range predictions {
		if pred {
			pp.Add(i)
		}
	}

	// Two disjoint sampling pools: a uniform sample of C' (drives the
	// recall estimate and the density probe) and a stratified sample of
	// C's predicted positives (drives the precision estimate). Precision
	// only concerns predicted positives, of which there are as many as
	// matches — labeling them directly avoids the pathology where a
	// uniform sample almost never hits one and the precision margin pins
	// the label budget. Both pools draw without replacement, and uniform
	// draws that happen to be predicted positives also feed precision.
	sampled := ruleeval.NewRowSet(n)
	type obs struct {
		idx   int
		match bool
	}
	var sampleU []obs // uniform over C'
	var sampleS []obs // stratified over predicted positives
	ruleUsed := make([]bool, len(cands))

	// exhausted reports whether every alive example has been labeled, in
	// which case both estimates are exact by enumeration.
	exhausted := func() bool { return alive.AndCount(sampled) == alive.Len() }

	// estimate computes the current P/R intervals. A uniform sample of an
	// earlier C stays uniform when conditioned on the current alive set,
	// so observations survive reductions (dead ones are dropped).
	estimate := func() (pIv, rIv stats.Interval) {
		if exhausted() {
			// Census of C': exact precision and recall (margins 0) under
			// the standing assumption that reduction eliminated only
			// negatives.
			var ap, tp, pp int
			count := func(os []obs) {
				for _, o := range os {
					if !alive.Has(o.idx) {
						continue
					}
					if predictions[o.idx] {
						pp++
					}
					if o.match {
						ap++
					}
					if predictions[o.idx] && o.match {
						tp++
					}
				}
			}
			count(sampleU)
			count(sampleS)
			p, r := 0.0, 0.0
			if pp > 0 {
				p = float64(tp) / float64(pp)
			}
			if ap > 0 {
				r = float64(tp) / float64(ap)
			}
			return stats.Interval{Point: p}, stats.Interval{Point: r}
		}
		var nAP, nTP int
		for _, o := range sampleU {
			if !alive.Has(o.idx) {
				continue
			}
			if o.match {
				nAP++
			}
			if predictions[o.idx] && o.match {
				nTP++
			}
		}
		// Precision among the predicted positives of the reduced set C':
		// every sampled predicted positive (from either pool) is a uniform
		// without-replacement draw from that stratum, so the §4.2 margin
		// with finite-population correction over |pp ∩ C'| applies. Under
		// the paper's working assumption that certified reduction rules
		// are (near-)100% precise, eliminated examples carry no true
		// positives and precision over C' tracks precision over C.
		var pn, ptp int
		for _, o := range sampleU {
			if alive.Has(o.idx) && predictions[o.idx] {
				pn++
				if o.match {
					ptp++
				}
			}
		}
		for _, o := range sampleS {
			if alive.Has(o.idx) {
				pn++
				if o.match {
					ptp++
				}
			}
		}
		pAlive, epAlive := prf(ptp, pn, alive.AndCount(pp), ruleeval.Confidence)
		pIv = stats.Interval{Point: pAlive, Margin: epAlive}
		// Recall: all actual positives are in C', so the uniform-sample
		// ratio estimates it directly (Eq. 3, no FPC — the positive
		// population size is unknown).
		r, er := prf(nTP, nAP, 0, ruleeval.Confidence)
		rIv = stats.Interval{Point: r, Margin: er}
		return
	}

	done := func(pIv, rIv stats.Interval) bool {
		return pIv.Margin <= ruleeval.EpsMax && rIv.Margin <= ruleeval.EpsMax
	}

	finish := func(pIv, rIv stats.Interval) *Result {
		res.Precision = pIv
		res.Recall = rIv
		res.F1 = 100 * stats.F1(pIv.Point, rIv.Point)
		res.FinalSetSize = alive.Len()
		return res
	}

	// Probe workspace, reused across probes: the unsampled alive rows and
	// the sampler's buffers.
	free := ruleeval.NewRowSet(n)
	var sampler ruleeval.RowSampler

	for {
		// Probe (§6.2's limited sampling, b = 50): up to half the batch
		// labels unsampled predicted positives (the precision stratum);
		// the rest is a uniform draw from the unsampled rows of C' — once
		// the precision stratum has run, mostly predicted negatives, so
		// not a uniform draw from C' (DESIGN.md §3b item 4).
		free.Set(alive)
		free.AndNot(sampled)
		free.And(pp)
		bS := min(LabelBatch/2, free.Len())
		for _, idx := range sampler.Draw(rng, free, bS) {
			sampled.Add(idx)
			match := runner.Label(pairs[idx], ruleeval.Policy)
			res.LabelsUsed++
			sampleS = append(sampleS, obs{idx: idx, match: match})
		}
		free.Set(alive)
		free.AndNot(sampled)
		if free.Len() == 0 && bS == 0 {
			return finish(estimate())
		}
		for _, idx := range sampler.Draw(rng, free, LabelBatch-bS) {
			sampled.Add(idx)
			match := runner.Label(pairs[idx], ruleeval.Policy)
			res.LabelsUsed++
			sampleU = append(sampleU, obs{idx: idx, match: match})
		}
		res.Probes++

		pIv, rIv := estimate()
		if done(pIv, rIv) {
			return finish(pIv, rIv)
		}
		if cfg.MaxLabels > 0 && res.LabelsUsed >= cfg.MaxLabels {
			return finish(pIv, rIv)
		}
		if runner.Stopped() {
			return finish(pIv, rIv) // the margins achieved so far (budget cap)
		}

		// Density of positives in C' from the uniform sample.
		nAlive, nPos := 0, 0
		for _, o := range sampleU {
			if alive.Has(o.idx) {
				nAlive++
				if o.match {
					nPos++
				}
			}
		}
		density := 0.0
		if nAlive > 0 {
			density = float64(nPos) / float64(nAlive)
		}

		// Enumerate options (§6.2 step 2): prefixes of the remaining rules
		// in greedy max-marginal-coverage order, plus the empty option.
		choice := chooseOption(cands, ruleUsed, alive, density, rIv)
		step := TraceStep{Alive: alive.Len(), Density: density,
			ChoseRules: len(choice), PMargin: pIv.Margin, RMargin: rIv.Margin}
		if len(choice) == 0 {
			res.Trace = append(res.Trace, step)
			continue // cheapest plan is plain sampling; probe again
		}

		// Partial evaluation (§6.2 step 3): crowd-certify the chosen
		// rules, apply the good ones, then re-optimize.
		var chosen []ruleeval.Candidate
		for _, ci := range choice {
			ruleUsed[ci] = true
			chosen = append(chosen, restrict(cands[ci], alive))
		}
		evals := ruleeval.EvaluateJoint(rng, runner, pairs, chosen, cfg.RuleEval)
		res.RulesEvaluated += len(evals)
		for _, ev := range evals {
			if !ev.Kept {
				continue
			}
			step.RulesKept++
			res.RulesApplied = append(res.RulesApplied, ev.Candidate.Rule)
			alive.AndNot(ev.Candidate.Coverage)
		}
		res.Trace = append(res.Trace, step)
		// Labels spent during rule evaluation also inform the estimates on
		// the next probe via the runner's cache when re-sampled; the loop
		// continues until the margins close.
	}
}

// restrict filters a candidate's coverage to the alive set.
func restrict(c ruleeval.Candidate, alive *ruleeval.RowSet) ruleeval.Candidate {
	cov := c.Coverage.Clone()
	cov.And(alive)
	return ruleeval.Candidate{Rule: c.Rule, Coverage: cov}
}

// chooseOption implements the §6.2 cost model: each option is a set of
// reduction rules; its cost is the labels to crowd-certify those rules plus
// the labels to sample the reduced set to the target margin (optimistically
// assuming the rules pass). Options are the prefixes of the greedy
// max-marginal-coverage ordering of the unused rules, plus the empty
// option; the cheapest is returned (empty slice = sample-only).
func chooseOption(cands []ruleeval.Candidate, used []bool, alive *ruleeval.RowSet,
	density float64, rIv stats.Interval) []int {

	// Greedy ordering by marginal coverage over alive examples. An entry's
	// gain is fixed when it is picked: the alive rows it covers that no
	// earlier pick does — a popcount against the still-uncovered set.
	type entry struct {
		ci   int
		size int // alive rows covered
		gain int // of those, new at its place in the order
	}
	var avail []entry
	for ci, c := range cands {
		if used[ci] {
			continue
		}
		size := c.Coverage.AndCount(alive)
		if size == 0 {
			continue
		}
		avail = append(avail, entry{ci: ci, size: size})
		if len(avail) >= ruleeval.TopK {
			break // per-round rule budget (§6.2's k)
		}
	}
	if len(avail) == 0 {
		return nil
	}
	uncovered := alive.Clone()
	var order []entry
	for len(avail) > 0 {
		best, bestGain := -1, 0
		for i, e := range avail {
			if gain := cands[e.ci].Coverage.AndCount(uncovered); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		e := avail[best]
		e.gain = bestGain
		avail = append(avail[:best], avail[best+1:]...)
		order = append(order, e)
		uncovered.AndNot(cands[e.ci].Coverage)
	}
	aliveCount := alive.Len()

	// Recall estimate for sizing the needed positive count; unknown early
	// on, so fall back to the conservative 0.5.
	rEst := rIv.Point
	if rEst <= 0 || rEst >= 1 || math.IsInf(rIv.Margin, 1) {
		rEst = 0.5
	}

	sampleCost := func(size int, dens float64) float64 {
		if size <= 0 {
			return 0
		}
		if dens <= 0 {
			dens = 1.0 / float64(size+1)
		}
		if dens > 1 {
			dens = 1
		}
		estPos := int(dens * float64(size))
		if estPos < 1 {
			estPos = 1
		}
		needPos := stats.SampleSizeForMargin(rEst, ruleeval.EpsMax, estPos, ruleeval.Confidence)
		need := float64(needPos) / dens
		if need > float64(size) {
			need = float64(size)
		}
		return need
	}
	// evalCost is the labels that certify a rule at precision 0.95 — a rule
	// the option assumes passes — to margin εmax.
	evalCost := func(covSize int) float64 {
		return float64(stats.SampleSizeForMargin(0.95, ruleeval.EpsMax, covSize, ruleeval.Confidence))
	}

	bestCost := sampleCost(aliveCount, density) // empty option
	var bestChoice []int
	cum := 0
	cumEval := 0.0
	prefix := make([]int, 0, len(order))
	for _, e := range order {
		cum += e.gain
		cumEval += evalCost(e.size)
		prefix = append(prefix, e.ci)
		newSize := aliveCount - cum
		// Positives survive reduction (rules assumed precise), so the
		// density scales up by |C|/|C'| (§6.2).
		newDens := density
		if newSize > 0 {
			newDens = density * float64(aliveCount) / float64(newSize)
		}
		cost := cumEval + sampleCost(newSize, newDens)
		if cost < bestCost {
			bestCost = cost
			bestChoice = append([]int(nil), prefix...)
		}
	}
	return bestChoice
}

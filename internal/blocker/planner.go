package blocker

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// Plan is the blocker's explain record: how the selected rules were applied
// to A×B and why. It is a pure function of the dataset, the extractor and
// the rules — the same at every GOMAXPROCS — and holds no clock, so a Result
// carrying it stays deterministic.
type Plan struct {
	// Indexed is true when candidates came from index probes, false when
	// every cell of A×B was visited (Reason says why).
	Indexed bool
	// Rule is the anchor — the selected rule whose probes generated the
	// candidates — rendered with feature names; Probes are its probes.
	Rule   string
	Probes []PlanProbe
	// Estimated is how many candidate pairs the anchor was expected to
	// generate, scaled up from a stride sample of table A; 0 for a scan.
	Estimated int64
	// Survivors is how many pairs the full rule set kept: the umbrella set.
	Survivors int64
	// Reason is why the exhaustive scan ran; empty when Indexed.
	Reason string
}

// PlanProbe is one term of the anchor's candidate union: the pairs with
// Feature (a measure of kind Kind) above Theta.
type PlanProbe struct {
	Feature string
	Kind    string
	Theta   float64
}

// String renders the record on one line, for reports and job events.
func (p Plan) String() string {
	if !p.Indexed {
		return "scan of A×B (" + p.Reason + ")"
	}
	parts := make([]string, len(p.Probes))
	for i, pr := range p.Probes {
		parts[i] = fmt.Sprintf("%s > %.4g", pr.Feature, pr.Theta)
	}
	return fmt.Sprintf("index probes %s for %s; ~%d candidates estimated, %d survive",
		strings.Join(parts, " ∪ "), p.Rule, p.Estimated, p.Survivors)
}

// plan is the candidate-generation strategy for one rule set: the explain
// record plus, when an anchor was chosen, what executing it needs.
//
// The §4.3 scan visits all of A×B. A selected rule of the shape
// sim(f₁) ≤ θ₁ ∧ … ∧ sim(f_k) ≤ θ_k → No removes a pair unless some
// sim(fᵢ) > θᵢ, so the survivors of the full rule set lie inside
// ⋃ᵢ {sim(fᵢ) > θᵢ}; when every fᵢ has an index, probing each and uniting
// the answers enumerates a complete superset of the survivors without
// visiting the rest of the product.
type plan struct {
	Plan
	rule   tree.Rule
	probes []shard.Probe
	// colsA[i] is probe i's table A profile column, thetas[i] its threshold.
	colsA  [][]*similarity.Profile
	thetas []float64
	// ix indexes every probe's table B column over all of B, so its local
	// ids are B rows; the estimate ran through it and the run probes it.
	ix *shard.Index
}

// estimateRows is how many table A rows the planner probes to estimate an
// anchor's candidate count: enough that a 4% anchor and a 40% one cannot be
// confused, few enough to cost under a hundredth of the probes that follow.
const estimateRows = 64

// anchorOf reads one rule as a probe list: every predicate must be ≤ on an
// indexable feature; several predicates on one feature fold to the smallest
// threshold, which must be ≥ 0 (below 0 the probe keeps every pair with a
// present value, which no index enumerates). The probes are in the order
// the rule first names their features. A rule that has the all-≤ shape but
// cannot anchor comes back with the reason; any other rule with nothing.
func anchorOf(ex *feature.Extractor, r tree.Rule) (probes []shard.Probe, kinds []simindex.Kind, reason string) {
	if len(r.Preds) == 0 || slices.ContainsFunc(r.Preds, func(p tree.Predicate) bool { return p.Op != tree.LE }) {
		return nil, nil, ""
	}
	for _, p := range r.Preds {
		i := slices.IndexFunc(probes, func(q shard.Probe) bool { return q.Feature == p.Feature })
		if i >= 0 {
			probes[i].Theta = min(probes[i].Theta, p.Threshold)
			continue
		}
		f := ex.Features()[p.Feature]
		kind, ok := simindex.KindOf(f.Kind)
		if !ok {
			return nil, nil, fmt.Sprintf("predicate on %s (%s) not indexable", f.Name, f.Kind)
		}
		probes = append(probes, shard.Probe{Feature: p.Feature, Theta: p.Threshold})
		kinds = append(kinds, kind)
	}
	if slices.ContainsFunc(probes, func(q shard.Probe) bool { return !(q.Theta >= 0) }) {
		return nil, nil, "negative threshold"
	}
	return probes, kinds, ""
}

// planRules picks the anchor expected to generate the fewest candidates
// among the selected rules that have the shape (rule order breaking ties),
// or the scan when none has it. The expectation is measured, not modelled:
// each anchorable rule's indexes are built over all of table B and probed
// for estimateRows rows of table A at a fixed stride; the count scales by
// |A|/rows. The winner's indexes are kept for the run.
func planRules(ex *feature.Extractor, rules []tree.Rule) plan {
	if len(rules) == 0 || ex.A.Len() <= 0 || ex.B.Len() <= 0 {
		return plan{Plan: Plan{Reason: "no rules to apply"}}
	}
	var best plan
	reason := ""
	for _, r := range rules {
		probes, kinds, why := anchorOf(ex, r)
		if probes == nil {
			if reason == "" {
				reason = why
			}
			continue
		}
		if p := anchorPlan(ex, r, probes, kinds); best.ix == nil || p.Estimated < best.Estimated {
			best = p
		}
	}
	if best.ix == nil {
		if reason == "" {
			reason = "no all-≤ rule"
		}
		return plan{Plan: Plan{Reason: reason}}
	}
	best.Indexed = true
	best.Rule = best.rule.Render(ex.Name)
	for _, q := range best.probes {
		f := ex.Features()[q.Feature]
		best.Probes = append(best.Probes, PlanProbe{Feature: f.Name, Kind: f.Kind, Theta: q.Theta})
	}
	return best
}

// anchorPlan builds the plan that generates candidates from rule r's probes
// (anchorOf's): its indexes over all of table B and the candidate count they
// are expected to produce.
func anchorPlan(ex *feature.Extractor, r tree.Rule, probes []shard.Probe, kinds []simindex.Kind) plan {
	p := plan{rule: r, probes: probes}
	var colsB [][]*similarity.Profile
	p.colsA, colsB, p.thetas = shard.ProbeColumns(ex, probes)
	p.ix = shard.BuildUnionGroup(kinds, colsB, 1).Shard(0)
	p.Estimated = estimateCandidates(p.ix, p.colsA, p.thetas)
	return p
}

// estimateCandidates runs the real candidate generation for at most
// estimateRows rows of table A, spread evenly, and scales the count to all
// of them.
func estimateCandidates(ix *shard.Index, colsA [][]*similarity.Profile, thetas []float64) int64 {
	na := len(colsA[0])
	m := min(na, estimateRows)
	scratch := simindex.NewScratch()
	probes := make([]*similarity.Profile, len(colsA))
	total := 0
	for i := 0; i < m; i++ {
		a := i * na / m
		for c, col := range colsA {
			probes[c] = col[a]
		}
		total += len(ix.Candidates(probes, thetas, scratch))
	}
	return int64(total) * int64(na) / int64(m)
}

// applyRulesTo streams the survivors of the selected rules over A×B to
// sink, in (a, b)-lexicographic order, and returns the plan it followed:
// index probes when a selected rule can anchor them, the exhaustive scan
// otherwise (planRules). stats, when non-nil, counts an index plan's probe
// blocks and verified candidates.
func applyRulesTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule, stats *shard.Stats, sink Sink) Plan {
	p := planRules(ex, rules)
	counted := func(chunk []record.Pair) {
		p.Survivors += int64(len(chunk))
		sink(chunk)
	}
	if len(rules) == 0 {
		emitAllPairs(ds, counted)
	} else {
		applyPlanTo(ds, ex, rules, p, stats, counted)
	}
	return p.Plan
}

// applyPlanTo is §4.3's rule application, for both plans: every row of
// table A is checked against the positions of one feature.Run over all of
// table B — all of them in a scan, the row's candidates from the plan's
// index when it is Indexed, whose local ids are B rows — by the Verifier,
// rule by rule and a column of the positions still alive at a time. Index
// completeness (simindex.Candidates) makes the candidates a superset of the
// anchor rule's survivors, which contain the full rule set's, so both plans
// emit the same stream; only the number of pairs verified differs.
//
// Rows run in parallel and are re-sequenced before emission, so the output
// order is (a, b)-lexicographic at every GOMAXPROCS. A row's survivors reach
// the sink in chunks of at most blockPairs; peak memory is the reorder
// window's rows of survivors, at most |B| pairs each, not the umbrella set.
// stats, when non-nil and the plan Indexed, gains one Dispatched per
// shard.TaskBlockRows rows of A and the candidates verified.
func applyPlanTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule, p plan, stats *shard.Stats, sink Sink) {
	na, nb := ds.A.Len(), ds.B.Len()
	if na <= 0 || nb <= 0 {
		return
	}
	if p.Indexed && stats != nil {
		stats.Dispatched.Add(int64((na + shard.TaskBlockRows - 1) / shard.TaskBlockRows))
	}
	workers := min(runtime.GOMAXPROCS(0), na)
	run := ex.NewRun(nil) // all of table B
	// Row buffers cycle between the workers and the emit callback: a
	// delivered row's buffer goes back on free, a claimer takes one from
	// there or allocates. Every buffer belongs to a claimed, undelivered
	// row or sits on free, and a claimer allocates only on finding free
	// empty, so at most window buffers ever exist and the send in emit
	// (which runs under the fan-out's lock) cannot block.
	window := workers * seqWindowPerWorker
	free := make(chan []record.Pair, window)
	q := par.NewOrdered(na, window, func(_ int, row []record.Pair) {
		for lo := 0; lo < len(row); lo += blockPairs {
			sink(row[lo:min(lo+blockPairs, len(row))])
		}
		free <- row
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := shard.NewVerifier(ex, rules)
			is := simindex.NewScratch()
			probes := make([]*similarity.Profile, len(p.colsA))
			verified := 0
			for {
				a, _, ok := q.Claim(1)
				if !ok {
					break
				}
				pos := run.Positions()
				if p.Indexed {
					for i, col := range p.colsA {
						probes[i] = col[a]
					}
					pos = p.ix.Candidates(probes, p.thetas, is)
					verified += len(pos)
				}
				var buf []record.Pair
				select {
				case buf = <-free:
				default:
				}
				q.Complete(a, v.RowSurvivors(buf[:0], int32(a), run, pos))
			}
			if p.Indexed && stats != nil {
				stats.Candidates.Add(int64(verified))
			}
		}()
	}
	wg.Wait()
}

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
// the rules — the same at every GOMAXPROCS, shard count and transport — and
// holds no clock, so a Result carrying it stays deterministic.
type Plan struct {
	// Indexed is true when candidates came from index probes, false when
	// every cell of A×B was visited (Reason says why).
	Indexed bool
	// Rule is the anchor — the selected rule whose probes generated the
	// candidates — rendered with feature names; Probes are its probes.
	Rule   string
	Probes []PlanProbe
	// Estimated is how many candidate pairs the anchor was expected to
	// generate, scaled up from a stride sample of table A. When the scan
	// ran because every anchor looked too wide, it is the narrowest one's.
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
	kinds  []simindex.Kind
	// colsA[i] / colsB[i] are probe i's table A and table B profile columns,
	// thetas[i] its threshold.
	colsA, colsB [][]*similarity.Profile
	thetas       []float64
	// group is the one-shard index group the estimate ran through; a
	// one-shard in-process run probes it as is.
	group *shard.Group
}

// estimateRows is how many table A rows the planner probes to estimate an
// anchor's candidate count: enough that a 4% anchor and a 40% one cannot be
// confused, few enough to cost under a hundredth of the probes that follow.
const estimateRows = 64

// scanCutNum / scanCutDen is the fraction of |A×B| above which an anchor's
// estimated candidates are not worth generating: the scan visits cells in
// order with no index to build, no union to sort and no cache misses, so an
// index that hands most of the product to the verifier anyway only adds
// cost. DESIGN.md §9.2 has the per-instance measurements behind the value.
const scanCutNum, scanCutDen = 1, 2

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
// or the scan when none has it or the best still covers more than the cut
// fraction of A×B. The expectation is measured, not modelled: each
// anchorable rule's indexes are built over all of table B — one shard, so
// the number does not depend on the run's shard count — and probed for
// estimateRows rows of table A at a fixed stride; the count scales by
// |A|/rows. The winner's indexes are kept for the run.
func planRules(ex *feature.Extractor, rules []tree.Rule) plan {
	na, nb := ex.A.Len(), ex.B.Len()
	if len(rules) == 0 || na <= 0 || nb <= 0 {
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
		if p := anchorPlan(ex, r, probes, kinds); best.group == nil || p.Estimated < best.Estimated {
			best = p
		}
	}
	cut := int64(na) * int64(nb) * scanCutNum / scanCutDen
	switch {
	case best.group != nil && best.Estimated <= cut:
	case best.group != nil:
		return plan{Plan: Plan{Estimated: best.Estimated,
			Reason: fmt.Sprintf("estimate %d > cut %d", best.Estimated, cut)}}
	case reason != "":
		return plan{Plan: Plan{Reason: reason}}
	default:
		return plan{Plan: Plan{Reason: "no all-≤ rule"}}
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
// (anchorOf's): its indexes over all of table B, as one shard, and the
// candidate count they are expected to produce.
func anchorPlan(ex *feature.Extractor, r tree.Rule, probes []shard.Probe, kinds []simindex.Kind) plan {
	p := plan{rule: r, probes: probes, kinds: kinds}
	p.colsA, p.colsB, p.thetas = shard.ProbeColumns(ex, probes)
	p.group = shard.BuildUnionGroup(kinds, p.colsB, 1)
	p.Estimated = estimateCandidates(p.group.Shard(0), p.colsA, p.thetas)
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

// execConfig carries the execution-strategy knobs from Config into the
// planner: shard count (0 = automatic), fan-out width and an optional stats
// sink. exec, when non-nil, replaces the in-process executor; it is the
// seam tests use to scramble task completion order.
type execConfig struct {
	shards  int
	workers int
	exec    shard.Executor
	stats   *shard.Stats
}

// applyRulesTo streams the survivors of the selected rules over A×B to
// sink, in (a, b)-lexicographic order, and returns the plan it followed.
// There are two strategies: when a selected rule can anchor index probes
// narrow enough to pay, candidates come from shard probes driven by the
// coordinator (one shard for a small table, more when the table is large or
// the count is configured); otherwise every cell is visited by the parallel
// exhaustive scan. The emitted pair stream is identical either way (every
// candidate is verified against all rules by the same evaluator); only the
// number of pairs visited differs. The returned error is the coordinator's,
// nil unless an executor fails.
func applyRulesTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule, ec execConfig, sink Sink) (Plan, error) {
	p := planRules(ex, rules)
	counted := func(chunk []record.Pair) {
		p.Survivors += int64(len(chunk))
		sink(chunk)
	}
	var err error
	switch {
	case len(rules) == 0:
		emitAllPairs(ds, counted)
	case !p.Indexed:
		applyRulesScanTo(ds, ex, rules, counted)
	default:
		err = applyRulesShardedTo(ds, ex, rules, p, shard.Choose(ec.shards, ds.B.Len()), ec, counted)
	}
	return p.Plan, err
}

// applyRulesScanTo is the exhaustive §4.3 scan: every cell of A×B is
// visited, in parallel, with features computed lazily and memoized across
// rules. The unit of work is one row of table A against all of table B — a
// feature.Run, which the Verifier walks rule by rule, a column of the
// positions still alive at a time — and rows are re-sequenced before emission, so the output order
// is (a, b)-lexicographic at every GOMAXPROCS. A row's survivors reach the
// sink in chunks of at most blockPairs; peak memory is the reorder window's
// rows of survivors, at most |B| pairs each, not the umbrella set.
func applyRulesScanTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule, sink Sink) {
	na, nb := ds.A.Len(), ds.B.Len()
	if na <= 0 || nb <= 0 {
		return
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
			for {
				a, _, ok := q.Claim(1)
				if !ok {
					return
				}
				var buf []record.Pair
				select {
				case buf = <-free:
				default:
				}
				q.Complete(a, v.RowSurvivors(buf[:0], int32(a), run, run.Positions()))
			}
		}()
	}
	wg.Wait()
}

// applyRulesShardedTo generates candidates through k independent shard
// indexes driven by the shard coordinator: the probe space is cut into
// (A-row-block × shard) tasks, executed by goroutine workers over a
// prebuilt shard group. For each A row a task unites the plan's probes
// over its shard of table B, then verifies every candidate against the full
// rule set with the same evaluator the scan uses. Index completeness (see
// simindex.Candidates) guarantees the candidates are a superset of the
// anchor rule's survivors, which contain the full rule set's survivors;
// exact verification then yields the scan's stream.
//
// The coordinator delivers results in task order — block-major,
// shard-minor — so the k consecutive survivor lists of one probe block are
// k-way merged by (a, b) and emitted; at k == 1 a task's list already is
// the block's chunk. The stream is byte-identical at every k, worker count,
// and completion order. Per-shard candidate SUPERSETS do differ with k
// (prefix-filter token order depends on per-index postings lengths), but
// supersets only decide which pairs get verified; the shared exact Verifier
// decides who survives.
func applyRulesShardedTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule,
	p plan, k int, ec execConfig, sink Sink) error {

	na := ds.A.Len()
	if na <= 0 || ds.B.Len() <= 0 {
		return nil
	}
	exec := ec.exec
	var local *shard.LocalExecutor
	if exec == nil {
		group := p.group
		if k != 1 {
			group = shard.BuildUnionGroup(p.kinds, p.colsB, k)
		}
		local = shard.NewUnionExecutor(ex, group, p.colsA, rules, p.thetas)
		exec = local
	}
	c := &shard.Coordinator{Workers: ec.workers, Stats: ec.stats}
	tasks := shard.BlockTasks(ds.Name, na, k)

	// Results arrive in Seq order, and the emit callback is serialized by
	// the coordinator, so no locking here. At k > 1 the k per-shard lists of
	// each probe block are consecutive: collect k, merge by (a, b), emit. At
	// k == 1 a task's list is the block's chunk as is — freshly allocated
	// and never reused, which satisfies the Sink contract without a copy.
	per := make([][]record.Pair, k)
	var merged []record.Pair
	filled := 0
	err := c.Run(tasks, exec, func(_ int, pairs []record.Pair) {
		if k > 1 {
			per[filled] = pairs
			filled++
			if filled < k {
				return
			}
			filled = 0
			merged = shard.MergePairs(merged, per)
			pairs = merged
		}
		if len(pairs) > 0 {
			sink(pairs)
		}
	})
	if local != nil && ec.stats != nil {
		ec.stats.Candidates.Add(local.Generated())
	}
	return err
}

package engine

import (
	"fmt"
	"io"
	"strings"
)

// Summary renders a human-readable run report: what was matched, what it
// cost, what the crowd-estimated quality is, and the per-phase trace —
// the text a hands-off user reads instead of a developer's logs.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Corleone run on %q\n", r.Dataset)
	if blk := r.Blocking; blk != nil {
		if blk.Triggered {
			fmt.Fprintf(&b, "  blocking: %d of %d pairs survive (%d rules, $%.2f, %d pairs labeled)\n",
				len(blk.Candidates), blk.CartesianSize, len(blk.Selected),
				r.BlockingAccounting.Cost, r.BlockingAccounting.Pairs)
			for _, rule := range blk.Selected {
				fmt.Fprintf(&b, "    rule: %s\n", rule.Render(r.featureName))
			}
			fmt.Fprintf(&b, "    plan: %s\n", blk.Plan)
		} else {
			fmt.Fprintf(&b, "  blocking: skipped (%d pairs fit below t_B)\n", blk.CartesianSize)
		}
	}
	fmt.Fprintf(&b, "  matches: %d found in %d iteration(s)\n", len(r.Matches), r.Iterations)
	fmt.Fprintf(&b, "  estimated: P=%.1f%%±%.1f R=%.1f%%±%.1f F1=%.1f%%\n",
		100*r.EstimatedPrecision.Point, 100*r.EstimatedPrecision.Margin,
		100*r.EstimatedRecall.Point, 100*r.EstimatedRecall.Margin, r.EstimatedF1)
	if r.HasTrue {
		fmt.Fprintf(&b, "  true:      %v\n", r.True)
	}
	fmt.Fprintf(&b, "  crowd: $%.2f for %d pairs (%d answers)\n",
		r.Accounting.Cost, r.Accounting.Pairs, r.Accounting.Answers)
	fmt.Fprintf(&b, "  stopped: %s\n", r.StopReason)
	for _, ph := range r.Phases {
		line := fmt.Sprintf("    %-13s %5d pairs", ph.Name, ph.PairsLabeled)
		switch {
		case ph.HasTrue:
			line += fmt.Sprintf("  true %v", ph.True)
		case ph.HasEst:
			line += fmt.Sprintf("  est  %v", ph.Estimated)
		default:
			line += fmt.Sprintf("  difficult set %d", ph.ReducedSetSize)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// featureName resolves a feature index against the run's feature contract,
// which a run stopped before its first matcher iteration does not have.
func (r *Result) featureName(i int) string {
	if i < len(r.FeatureNames) {
		return r.FeatureNames[i]
	}
	return fmt.Sprintf("feature#%d", i)
}

// SaveModel serializes the trained matcher (iteration 1's forest plus its
// feature contract) so future datasets with the same schema can be matched
// without retraining — the reuse scenario of the paper's Example 3.1.
func (r *Result) SaveModel(w io.Writer) error {
	if r.Model == nil {
		return fmt.Errorf("engine: run produced no model")
	}
	return r.Model.Save(w, r.FeatureNames)
}

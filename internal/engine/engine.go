// Package engine wires the four Corleone modules into the Figure 1 control
// loop: Blocker → { Matcher → Accuracy Estimator → Difficult Pairs'
// Locator } repeated until the estimated accuracy stops improving, the
// locator finds nothing left to zoom into, or the monetary budget runs out.
// Per-phase statistics are recorded in the shape of the paper's Table 4.
package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/corleone-em/corleone/internal/active"

	"github.com/corleone-em/corleone/internal/blocker"
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/estimator"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/locator"
	"github.com/corleone-em/corleone/internal/matcher"
	"github.com/corleone-em/corleone/internal/metrics"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/stats"
)

// Config controls a Corleone run.
type Config struct {
	Blocker   blocker.Config
	Matcher   matcher.Config
	Estimator estimator.Config
	Locator   locator.Config
	// PricePerQuestion is the payment per crowd answer (paper: $0.01 for
	// Restaurants and Citations, $0.02 for Products).
	PricePerQuestion float64
	// MaxIterations caps matching iterations (paper needs 1–2; default 3).
	MaxIterations int
	// Budget, when positive, stops the run once crowd cost reaches it
	// (the "$500 journalist" mode of §3).
	Budget float64
	// PhaseBudgets, when set, caps crowd spend per pipeline stage — the
	// §10 budget-allocation question ("given a monetary budget, how to
	// best allocate it among blocking, matching, and estimation?").
	// AllocateBudget provides the default split.
	PhaseBudgets PhaseBudgets
	// SkipEstimator runs Blocker + Matcher only (single shot, no
	// iteration) — one of the §3 alternative modes.
	SkipEstimator bool
	// Listener, when non-nil, receives progress events as the pipeline
	// advances — crowd runs take real time and money, and the user should
	// see both ticking.
	Listener func(Event)
	// Cancel, when non-nil, aborts the run as soon as the channel closes
	// (checked between crowd batches and phases, and by the crowd runner
	// before every individual question, so a cancel mid-batch stops
	// soliciting — and recording — answers immediately). The partial result
	// is returned with StopReason "canceled" — labels already paid for are
	// in the result, not lost.
	Cancel <-chan struct{}
	// Runner, when non-nil, is used instead of constructing a fresh runner
	// from the crowd argument — the resume path: a run service preloads it
	// with journaled answers so no question is paid for twice, and installs
	// its journal hooks before the run starts.
	// PricePerQuestion is ignored in that case; the runner carries its own.
	Runner *crowd.Runner
	// Checkpoint, when non-nil, receives a durable-state snapshot at every
	// phase boundary (after blocking and after each iteration, estimation,
	// and reduction phase). A run service flushes its journal here.
	Checkpoint func(Checkpoint)
	// Seed drives all sampling.
	Seed int64
}

// Checkpoint is the phase-boundary snapshot handed to Config.Checkpoint:
// everything a journal needs to make the run resumable at this point.
type Checkpoint struct {
	// Phase is "blocking", "iteration", "estimation", or "reduction".
	Phase string
	// Iteration is the 1-based matching iteration (0 for blocking).
	Iteration int
	// Accounting is the crowd spend at the boundary.
	Accounting crowd.Accounting
	// Forest is the matcher trained this iteration (nil outside iteration
	// boundaries) and FeatureNames its feature contract, so the snapshot
	// can be persisted with forest.Save and re-applied later.
	Forest       *forest.Forest
	FeatureNames []string
}

// Event is one pipeline progress notification.
type Event struct {
	// Phase is "blocking", "matching", "estimation", or "reduction".
	Phase string
	// Detail is a human-readable progress line.
	Detail string
	// Cost and Pairs snapshot the crowd spend at emission time.
	Cost  float64
	Pairs int
}

// PhaseBudgets caps crowd spend per stage. Zero fields mean "no cap".
// Matching covers every matcher iteration plus difficult-pair location;
// Estimation covers every accuracy-estimation pass.
type PhaseBudgets struct {
	Blocking   float64
	Matching   float64
	Estimation float64
}

// AllocateBudget splits a total budget with the 25/45/30 heuristic:
// blocking labels are the cheapest per unit of benefit but saturate early;
// matching is the accuracy-critical stage; estimation needs enough labels
// that its margins mean something. The split was tuned on the synthetic
// datasets with simulated crowds.
func AllocateBudget(total float64) PhaseBudgets {
	return PhaseBudgets{
		Blocking:   0.25 * total,
		Matching:   0.45 * total,
		Estimation: 0.30 * total,
	}
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{
		Blocker:          blocker.Defaults(),
		Matcher:          matcher.Defaults(),
		Estimator:        estimator.Defaults(),
		Locator:          locator.Defaults(),
		PricePerQuestion: 0.01,
		MaxIterations:    3,
		Seed:             1,
	}
}

// Phase names one row fragment of Table 4.
type Phase struct {
	// Name is "Iteration 1", "Estimation 1", "Reduction 1", ...
	Name string
	// PairsLabeled is the number of NEW distinct pairs the crowd labeled
	// during this phase (Table 4's "# Pairs").
	PairsLabeled int
	// True is the true accuracy of the cumulative matcher after an
	// Iteration phase (empty for other phases, or without ground truth).
	True metrics.PRF
	// HasTrue reports whether True is populated.
	HasTrue bool
	// Estimated is the estimator's output after an Estimation phase.
	Estimated metrics.PRF
	HasEst    bool
	// ReducedSetSize is |C'| after a Reduction phase.
	ReducedSetSize int
}

// Result is a complete Corleone run.
type Result struct {
	// Dataset is the dataset name.
	Dataset string
	// Blocking reports the Blocker's work.
	Blocking *blocker.Result
	// BlockingAccounting is the crowd spend snapshot right after blocking
	// (Table 3's Cost / # Pairs columns).
	BlockingAccounting crowd.Accounting
	// Matches is the final set of predicted match pairs.
	Matches []record.Pair
	// EstimatedPrecision / EstimatedRecall / EstimatedF1 are the final
	// crowd-based estimates returned to the user.
	EstimatedPrecision stats.Interval
	EstimatedRecall    stats.Interval
	EstimatedF1        float64
	// True is the gold-standard accuracy (populated when the dataset has
	// ground truth; Corleone itself never consults it).
	True    metrics.PRF
	HasTrue bool
	// Phases is the Table 4 trace.
	Phases []Phase
	// Iterations is the number of matching iterations executed.
	Iterations int
	// IterationMatches[i] is the cumulative predicted-match set after
	// iteration i+1 (for the §9.3 reduction-effectiveness analysis).
	IterationMatches [][]record.Pair
	// DifficultSets[i] is the difficult pair set C' produced by reduction
	// i+1 (empty when the locator stopped the run).
	DifficultSets [][]record.Pair
	// EstimatorRuns and LocatorRuns expose the per-iteration module
	// results for the §9.3 rule audit.
	EstimatorRuns []*estimator.Result
	LocatorRuns   []*locator.Result
	// ConfidenceTraces[i] is the matcher's active-learning confidence
	// series in iteration i+1 (Figure 3).
	ConfidenceTraces []active.Trace
	// Model is the iteration-1 matcher (trained over the full candidate
	// set) and FeatureNames its feature contract — together they let a
	// trained matcher be saved and re-applied to future data without
	// retraining (the paper's Example 3.1).
	Model        *forest.Forest
	FeatureNames []string
	// Accounting is the total crowd spend.
	Accounting crowd.Accounting
	// StopReason explains why the loop ended.
	StopReason string
}

// Run executes the full hands-off pipeline on the dataset using the given
// crowd. The dataset's ground truth, if present, is used only by simulated
// crowds and for reporting true accuracy.
func Run(ds *record.Dataset, c crowd.Crowd, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 3
	}
	if cfg.PricePerQuestion <= 0 {
		cfg.PricePerQuestion = 0.01
	}
	runner := cfg.Runner
	if runner == nil {
		runner = crowd.NewRunner(c, cfg.PricePerQuestion)
	}
	if runner.Cancel == nil {
		// Propagate cancellation below the batch level: the runner refuses
		// to solicit (or record) answers once the channel closes, so a
		// canceled crowd adapter's fabricated answers never enter the cache.
		runner.Cancel = cfg.Cancel
	}
	runner.SeedLabels(ds.Seeds)
	ex := feature.NewExtractor(ds)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Dataset: ds.Name}
	emit := func(phase, detail string) {
		if cfg.Listener == nil {
			return
		}
		st := runner.Stats()
		cfg.Listener(Event{Phase: phase, Detail: detail, Cost: st.Cost, Pairs: st.Pairs})
	}
	checkpoint := func(phase string, iter int, f *forest.Forest) {
		if cfg.Checkpoint == nil {
			return
		}
		cp := Checkpoint{Phase: phase, Iteration: iter,
			Accounting: runner.Stats(), Forest: f}
		if f != nil {
			cp.FeatureNames = ex.Names()
		}
		cfg.Checkpoint(cp)
	}

	canceled := func() bool {
		select {
		case <-cfg.Cancel:
			return true
		default:
			return false
		}
	}
	overBudget := func() bool {
		if cfg.Cancel != nil && canceled() {
			return true
		}
		return cfg.Budget > 0 && runner.Stats().Cost >= cfg.Budget
	}
	// Per-phase spend tracking for PhaseBudgets: bucketStart is the cost
	// when the current phase (re-)entered its bucket; the accumulators
	// carry spend from earlier visits (matching and estimation recur).
	var bucketStart, matchSpent, estSpent float64
	blockingStop := func() bool {
		if overBudget() {
			return true
		}
		return cfg.PhaseBudgets.Blocking > 0 &&
			runner.Stats().Cost >= cfg.PhaseBudgets.Blocking
	}
	matchingStop := func() bool {
		if overBudget() {
			return true
		}
		return cfg.PhaseBudgets.Matching > 0 &&
			matchSpent+(runner.Stats().Cost-bucketStart) >= cfg.PhaseBudgets.Matching
	}
	estimationStop := func() bool {
		if overBudget() {
			return true
		}
		return cfg.PhaseBudgets.Estimation > 0 &&
			estSpent+(runner.Stats().Cost-bucketStart) >= cfg.PhaseBudgets.Estimation
	}
	// Propagate the budget checks into every crowd-spending loop.
	cfg.Blocker.Active.StopEarly = blockingStop
	cfg.Blocker.RuleEval.StopEarly = blockingStop
	cfg.Matcher.Active.StopEarly = matchingStop
	cfg.Estimator.StopEarly = estimationStop
	cfg.Locator.RuleEval.StopEarly = matchingStop

	// ---- Blocker (§4) ----
	emit("blocking", fmt.Sprintf("scanning %d pairs (t_B = %d)", ds.CartesianSize(), cfg.Blocker.TB))
	bcfg := cfg.Blocker
	bcfg.Seed = cfg.Seed
	// Consume the umbrella set as a stream: the blocker's planner emits
	// bounded chunks in deterministic order, and the engine materializes C
	// exactly once here (the matcher needs random access to it).
	// Below t_B blocking passes all of A×B through, so C's size is known:
	// one allocation instead of append's doubling. A triggered run's
	// umbrella set is a small, unknown fraction and keeps growing by chunk.
	var C []record.Pair
	if n := ds.CartesianSize(); n <= int64(bcfg.TB) {
		C = make([]record.Pair, 0, n)
	}
	bcfg.Sink = func(chunk []record.Pair) { C = append(C, chunk...) }
	blk, err := blocker.Run(ds, ex, runner, bcfg)
	if err != nil {
		return nil, err
	}
	// Re-attach the collected umbrella set so Result.Blocking.Candidates
	// keeps its documented meaning for reports, experiments, and tests.
	blk.Candidates = C
	res.Blocking = blk
	res.BlockingAccounting = runner.Stats()
	if blk.Triggered {
		emit("blocking", fmt.Sprintf("%d rules applied by %s, umbrella set %d pairs",
			len(blk.Selected), blk.Plan, len(blk.Candidates)))
	} else {
		emit("blocking", "skipped (Cartesian product below t_B)")
	}
	checkpoint("blocking", 0, nil)
	X := ex.Vectors(C)

	// All labeled examples accumulated so far, deduplicated by pair (§5.1
	// trains on "all labeled examples available"). Their vectors are looked
	// up, not indexed: C arrives in (a, b) order (the Sink contract), so a
	// training pair inside C is a binary search away, and one outside it —
	// a seed or blocking-sample pair the rules removed — is computed afresh.
	// A vector is a pure function of its pair, so a miss costs time only.
	lookupVec := func(p record.Pair) []float64 {
		i := sort.Search(len(C), func(i int) bool { return !C[i].Less(p) })
		if i < len(C) && C[i] == p {
			return X[i]
		}
		return ex.Vector(p)
	}
	var training []record.Labeled
	seen := record.NewPairSet()
	addTraining := func(ls []record.Labeled) {
		for _, l := range ls {
			if seen.Has(l.Pair) {
				continue
			}
			seen.Add(l.Pair)
			training = append(training, l)
		}
	}
	addTraining(ds.Seeds)
	addTraining(blk.Training)

	// Combined predictions over C: later iterations overwrite only their
	// difficult subset (§7 step 3 routes each pair to the matcher trained
	// for it).
	finalPred := make([]bool, len(C))
	cur := make([]int, len(C)) // indices into C for the current iteration's set
	for i := range cur {
		cur[i] = i
	}

	bestEstF1 := -1.0
	var bestMatches []record.Pair
	pairsBefore := func() int { return runner.Stats().Pairs }

	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		if cfg.Cancel != nil && canceled() {
			res.StopReason = "canceled"
			break
		}
		if overBudget() {
			res.StopReason = "budget exhausted"
			break
		}
		// ---- Matcher (§5) ----
		start := pairsBefore()
		subPairs, subX := C, X // iteration 1 runs over all of C
		if iter > 1 {
			subPairs = make([]record.Pair, len(cur))
			subX = make([][]float64, len(cur))
			for i, ci := range cur {
				subPairs[i] = C[ci]
				subX[i] = X[ci]
			}
		}
		initX := make([][]float64, len(training))
		for i, l := range training {
			initX[i] = lookupVec(l.Pair)
		}
		emit("matching", fmt.Sprintf("iteration %d over %d candidates", iter, len(cur)))
		mcfg := cfg.Matcher
		mcfg.Active.Seed = cfg.Seed + int64(iter)*104729
		bucketStart = runner.Stats().Cost
		m, err := matcher.Run(runner, subPairs, subX, training, initX, mcfg)
		matchSpent += runner.Stats().Cost - bucketStart
		if err != nil {
			return nil, err
		}
		addTraining(m.Training)
		if iter == 1 {
			res.Model = m.Forest
			res.FeatureNames = ex.Names()
		}
		for i, ci := range cur {
			finalPred[ci] = m.Predictions[i]
		}
		res.Iterations = iter
		res.IterationMatches = append(res.IterationMatches, collect(C, finalPred))
		res.ConfidenceTraces = append(res.ConfidenceTraces, m.Trace)

		iterPhase := Phase{
			Name:         fmt.Sprintf("Iteration %d", iter),
			PairsLabeled: runner.Stats().Pairs - start,
		}
		if ds.Truth != nil {
			iterPhase.True = metrics.Evaluate(collect(C, finalPred), ds.Truth)
			iterPhase.HasTrue = true
		}
		res.Phases = append(res.Phases, iterPhase)
		emit("matching", fmt.Sprintf("iteration %d done: %d predicted matches (AL stopped: %s)",
			iter, m.PositiveCount, m.Trace.Reason))
		checkpoint("iteration", iter, m.Forest)

		if cfg.SkipEstimator {
			res.StopReason = "estimator skipped"
			bestMatches = collect(C, finalPred)
			break
		}
		if overBudget() {
			res.StopReason = "budget exhausted"
			bestMatches = collect(C, finalPred)
			break
		}

		// ---- Accuracy Estimator (§6) ----
		start = pairsBefore()
		ecfg := cfg.Estimator
		ecfg.Seed = cfg.Seed + int64(iter)*7
		bucketStart = runner.Stats().Cost
		est := estimator.Estimate(rng, runner, m.Forest, C, X, finalPred, training, ecfg)
		estSpent += runner.Stats().Cost - bucketStart
		res.EstimatorRuns = append(res.EstimatorRuns, est)
		emit("estimation", fmt.Sprintf("P=%.1f%%±%.1f R=%.1f%%±%.1f (%d reduction rules)",
			100*est.Precision.Point, 100*est.Precision.Margin,
			100*est.Recall.Point, 100*est.Recall.Margin, len(est.RulesApplied)))
		res.EstimatedPrecision = est.Precision
		res.EstimatedRecall = est.Recall
		res.EstimatedF1 = est.F1
		res.Phases = append(res.Phases, Phase{
			Name:         fmt.Sprintf("Estimation %d", iter),
			PairsLabeled: runner.Stats().Pairs - start,
			Estimated: metrics.PRF{P: 100 * est.Precision.Point,
				R: 100 * est.Recall.Point, F1: est.F1},
			HasEst: true,
		})
		checkpoint("estimation", iter, nil)

		// Keep the best matching seen so far (by estimated F1); stop when
		// the estimate no longer improves (§6 intro, §7).
		if est.F1 > bestEstF1 {
			bestEstF1 = est.F1
			bestMatches = collect(C, finalPred)
		} else {
			res.StopReason = "estimated accuracy did not improve"
			break
		}
		if iter == cfg.MaxIterations {
			res.StopReason = "max iterations"
			break
		}
		if overBudget() {
			res.StopReason = "budget exhausted"
			break
		}

		// ---- Difficult Pairs' Locator (§7) ----
		start = pairsBefore()
		lcfg := cfg.Locator
		lcfg.Seed = cfg.Seed + int64(iter)*13
		bucketStart = runner.Stats().Cost
		loc := locator.Locate(rng, runner, m.Forest, subPairs, subX, training, lcfg)
		matchSpent += runner.Stats().Cost - bucketStart
		res.LocatorRuns = append(res.LocatorRuns, loc)
		next := make([]int, len(loc.DifficultIdx))
		diff := make([]record.Pair, len(loc.DifficultIdx))
		for i, di := range loc.DifficultIdx {
			next[i] = cur[di]
			diff[i] = C[cur[di]]
		}
		res.DifficultSets = append(res.DifficultSets, diff)
		emit("reduction", fmt.Sprintf("%d difficult pairs located (proceed: %v)",
			len(diff), loc.Proceed))
		res.Phases = append(res.Phases, Phase{
			Name:           fmt.Sprintf("Reduction %d", iter),
			PairsLabeled:   runner.Stats().Pairs - start,
			ReducedSetSize: len(next),
		})
		checkpoint("reduction", iter, nil)
		if !loc.Proceed {
			res.StopReason = "locator: " + loc.Reason
			break
		}
		cur = next
	}

	if cfg.Cancel != nil && canceled() {
		res.StopReason = "canceled"
	}
	if bestMatches == nil {
		bestMatches = collect(C, finalPred)
	}
	res.Matches = bestMatches
	if ds.Truth != nil {
		res.True = metrics.Evaluate(res.Matches, ds.Truth)
		res.HasTrue = true
	}
	res.Accounting = runner.Stats()
	if res.StopReason == "" {
		res.StopReason = "completed"
	}
	return res, nil
}

func collect(pairs []record.Pair, pred []bool) []record.Pair {
	var out []record.Pair
	for i, p := range pred {
		if p {
			out = append(out, pairs[i])
		}
	}
	return out
}

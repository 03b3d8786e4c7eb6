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
	// Run installs its budget checks as the runner's Stop hook.
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
//
// The pipeline is a stage list over one run state: the blocking stage, then
// matching, estimation and reduction each iteration. step wraps every stage
// in the same bookkeeping, and the cancel and total-budget check runs once
// before each iteration stage.
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
	st := &run{cfg: cfg, ds: ds, runner: cfg.Runner, res: &Result{Dataset: ds.Name}, bestF1: -1,
		caps: [...]float64{cfg.PhaseBudgets.Blocking, cfg.PhaseBudgets.Matching, cfg.PhaseBudgets.Estimation}}
	if st.runner == nil {
		st.runner = crowd.NewRunner(c, cfg.PricePerQuestion)
	}
	if st.runner.Cancel == nil {
		// Propagate cancellation below the batch level: the runner refuses
		// to solicit (or record) answers once the channel closes, so a
		// canceled crowd adapter's fabricated answers never enter the cache.
		st.runner.Cancel = cfg.Cancel
	}
	st.runner.Stop = st.stopped
	st.runner.SeedLabels(ds.Seeds)
	st.ex = feature.NewExtractor(ds)
	st.rng = rand.New(rand.NewSource(cfg.Seed))

	stop, err := st.step(blocking)
	for err == nil && stop == "" {
		st.iter++
		for _, s := range iteration {
			if st.overBudget() {
				stop = "budget exhausted"
				break
			}
			if stop, err = st.step(s); err != nil || stop != "" {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return st.finish(stop), nil
}

// The PhaseBudgets buckets, as indices into run.caps and run.spent.
const (
	blockingBucket = iota
	matchingBucket
	estimationBucket
)

// stage is one box of Figure 1. do runs it and returns its Table 4 row
// (blocking has none) and, when the loop must end after it, a stop reason.
type stage struct {
	phase  string // Checkpoint.Phase
	bucket int    // the PhaseBudgets bucket it spends from
	do     func(*run) (Phase, string, error)
}

var (
	blocking  = stage{"blocking", blockingBucket, (*run).block}
	iteration = [...]stage{
		{"iteration", matchingBucket, (*run).match},
		{"estimation", estimationBucket, (*run).estimate},
		{"reduction", matchingBucket, (*run).reduce},
	}
)

// noGain is the stop reason of an iteration the estimator rejected.
const noGain = "estimated accuracy did not improve"

// run is the state the stages of one Run share.
type run struct {
	cfg    Config
	ds     *record.Dataset
	runner *crowd.Runner
	ex     *feature.Extractor
	rng    *rand.Rand
	res    *Result

	// C is the umbrella set and X its vectors.
	C []record.Pair
	X [][]float64
	// training is every labeled example so far, deduplicated by pair (§5.1
	// trains on "all labeled examples available"); seen holds its pairs.
	training []record.Labeled
	seen     record.PairSet
	// pred is the combined prediction over C: later iterations overwrite
	// only their difficult subset (§7 step 3 routes each pair to the matcher
	// trained for it). cur indexes C for the current iteration's set, and
	// sub and subX are that set and its vectors.
	pred []bool
	cur  []int
	sub  []record.Pair
	subX [][]float64

	iter   int
	m      *matcher.Result // this iteration's matcher
	bestF1 float64         // best estimated F1 so far
	best   []record.Pair   // the combined matching it was estimated on

	// caps are the PhaseBudgets by bucket, spent the spend of each bucket's
	// finished stages, and bucket and bucketStart the running stage's bucket
	// and the cost when it started.
	caps        [3]float64
	spent       [3]float64
	bucket      int
	bucketStart float64
}

// step runs one stage inside the bookkeeping every stage shares: it points
// the Stop hook at the stage's bucket, runs the stage, charges the bucket,
// appends the stage's Table 4 row with the pairs it labeled, and hands
// Config.Checkpoint the boundary.
func (st *run) step(s stage) (string, error) {
	before := st.runner.Stats()
	st.bucket, st.bucketStart = s.bucket, before.Cost
	row, stop, err := s.do(st)
	if err != nil {
		return "", err
	}
	after := st.runner.Stats()
	st.spent[s.bucket] += after.Cost - before.Cost
	if row.Name != "" {
		row.PairsLabeled = after.Pairs - before.Pairs
		st.res.Phases = append(st.res.Phases, row)
	}
	if st.cfg.Checkpoint != nil {
		cp := Checkpoint{Phase: s.phase, Iteration: st.iter, Accounting: after}
		if s.phase == "iteration" {
			cp.Forest, cp.FeatureNames = st.m.Forest, st.ex.Names()
		}
		st.cfg.Checkpoint(cp)
	}
	return stop, nil
}

// stopped is the runner's Stop hook, polled by every crowd loop: it fires
// once the run is canceled, the total budget is spent, or the running
// stage's bucket has spent its PhaseBudgets cap.
func (st *run) stopped() bool {
	if st.overBudget() {
		return true
	}
	c := st.caps[st.bucket]
	return c > 0 && st.spent[st.bucket]+(st.runner.Stats().Cost-st.bucketStart) >= c
}

// overBudget reports a canceled run or a spent total budget.
func (st *run) overBudget() bool {
	select {
	case <-st.cfg.Cancel:
		return true
	default:
	}
	return st.cfg.Budget > 0 && st.runner.Stats().Cost >= st.cfg.Budget
}

func (st *run) emit(phase, detail string) {
	if st.cfg.Listener == nil {
		return
	}
	a := st.runner.Stats()
	st.cfg.Listener(Event{Phase: phase, Detail: detail, Cost: a.Cost, Pairs: a.Pairs})
}

// block runs the Blocker (§4) and vectorises the umbrella set it streams.
func (st *run) block() (Phase, string, error) {
	ds, bcfg := st.ds, st.cfg.Blocker
	st.emit("blocking", fmt.Sprintf("scanning %d pairs (t_B = %d)", ds.CartesianSize(), bcfg.TB))
	bcfg.Seed = st.cfg.Seed
	// Consume the umbrella set as a stream: the blocker's planner emits
	// bounded chunks in deterministic order, and the engine materializes C
	// exactly once here (the matcher needs random access to it).
	// Below t_B blocking passes all of A×B through, so C's size is known:
	// one allocation instead of append's doubling. A triggered run's
	// umbrella set is a small, unknown fraction and keeps growing by chunk.
	if n := ds.CartesianSize(); n <= int64(bcfg.TB) {
		st.C = make([]record.Pair, 0, n)
	}
	bcfg.Sink = func(chunk []record.Pair) { st.C = append(st.C, chunk...) }
	blk, err := blocker.Run(ds, st.ex, st.runner, bcfg)
	if err != nil {
		return Phase{}, "", err
	}
	// Re-attach the collected umbrella set so Result.Blocking.Candidates
	// keeps its documented meaning for reports, experiments, and tests.
	blk.Candidates = st.C
	st.res.Blocking = blk
	st.res.BlockingAccounting = st.runner.Stats()
	if blk.Triggered {
		st.emit("blocking", fmt.Sprintf("%d rules applied by %s, umbrella set %d pairs",
			len(blk.Selected), blk.Plan, len(blk.Candidates)))
	} else {
		st.emit("blocking", "skipped (Cartesian product below t_B)")
	}
	st.X = st.ex.Vectors(st.C)
	st.seen = record.NewPairSet()
	st.addTraining(ds.Seeds)
	st.addTraining(blk.Training)
	st.pred = make([]bool, len(st.C))
	st.cur = make([]int, len(st.C))
	for i := range st.cur {
		st.cur[i] = i
	}
	st.sub, st.subX = st.C, st.X // iteration 1 runs over all of C
	return Phase{}, "", nil
}

// match trains this iteration's matcher (§5) over the current set and
// routes its predictions into the combined ones.
func (st *run) match() (Phase, string, error) {
	cfg, iter, res := st.cfg, st.iter, st.res
	initX := make([][]float64, len(st.training))
	for i, l := range st.training {
		initX[i] = st.vector(l.Pair)
	}
	st.emit("matching", fmt.Sprintf("iteration %d over %d candidates", iter, len(st.cur)))
	mcfg := cfg.Matcher
	mcfg.Active.Seed = cfg.Seed + int64(iter)*104729
	m, err := matcher.Run(st.runner, st.sub, st.subX, st.training, initX, mcfg)
	if err != nil {
		return Phase{}, "", err
	}
	st.m = m
	st.addTraining(m.Training)
	if iter == 1 {
		res.Model = m.Forest
		res.FeatureNames = st.ex.Names()
	}
	for i, ci := range st.cur {
		st.pred[ci] = m.Predictions[i]
	}
	res.Iterations = iter
	res.IterationMatches = append(res.IterationMatches, collect(st.C, st.pred))
	res.ConfidenceTraces = append(res.ConfidenceTraces, m.Trace)
	row := Phase{Name: fmt.Sprintf("Iteration %d", iter)}
	if st.ds.Truth != nil {
		row.True = metrics.Evaluate(collect(st.C, st.pred), st.ds.Truth)
		row.HasTrue = true
	}
	st.emit("matching", fmt.Sprintf("iteration %d done: %d predicted matches (AL stopped: %s)",
		iter, m.PositiveCount, m.Trace.Reason))
	if cfg.SkipEstimator {
		return row, "estimator skipped", nil
	}
	return row, "", nil
}

// estimate estimates the combined matching's accuracy (§6). The run keeps
// the best matching seen so far by estimated F1, and stops when the
// estimate no longer improves (§6 intro, §7).
func (st *run) estimate() (Phase, string, error) {
	est := estimator.Estimate(st.rng, st.runner, st.m.Forest, st.C, st.X, st.pred, st.training, st.cfg.Estimator)
	st.res.EstimatorRuns = append(st.res.EstimatorRuns, est)
	st.emit("estimation", fmt.Sprintf("P=%.1f%%±%.1f R=%.1f%%±%.1f (%d reduction rules)",
		100*est.Precision.Point, 100*est.Precision.Margin,
		100*est.Recall.Point, 100*est.Recall.Margin, len(est.RulesApplied)))
	st.res.EstimatedPrecision, st.res.EstimatedRecall, st.res.EstimatedF1 = est.Precision, est.Recall, est.F1
	row := Phase{
		Name:      fmt.Sprintf("Estimation %d", st.iter),
		Estimated: metrics.PRF{P: 100 * est.Precision.Point, R: 100 * est.Recall.Point, F1: est.F1},
		HasEst:    true,
	}
	if est.F1 <= st.bestF1 {
		return row, noGain, nil
	}
	st.bestF1, st.best = est.F1, collect(st.C, st.pred)
	if st.iter == st.cfg.MaxIterations {
		return row, "max iterations", nil
	}
	return row, "", nil
}

// reduce locates the current set's difficult pairs (§7) and makes them
// the set the next iteration matches.
func (st *run) reduce() (Phase, string, error) {
	loc := locator.Locate(st.rng, st.runner, st.m.Forest, st.sub, st.subX, st.training, st.cfg.Locator)
	next := make([]int, len(loc.DifficultIdx))
	diff := make([]record.Pair, len(loc.DifficultIdx))
	diffX := make([][]float64, len(loc.DifficultIdx))
	for i, di := range loc.DifficultIdx {
		next[i] = st.cur[di]
		diff[i], diffX[i] = st.C[next[i]], st.X[next[i]]
	}
	st.cur, st.sub, st.subX = next, diff, diffX
	st.res.LocatorRuns = append(st.res.LocatorRuns, loc)
	st.res.DifficultSets = append(st.res.DifficultSets, diff)
	st.emit("reduction", fmt.Sprintf("%d difficult pairs located (proceed: %v)", len(diff), loc.Proceed))
	row := Phase{Name: fmt.Sprintf("Reduction %d", st.iter), ReducedSetSize: len(next)}
	if !loc.Proceed {
		return row, "locator: " + loc.Reason, nil
	}
	return row, "", nil
}

// finish fills in the result of a run that stopped for the given reason.
// A run returns its latest combined matching, which at every stop is the
// best estimated one or not yet estimated, except when the estimator
// rejected it; then it returns the best one, unless that one was empty (a
// nil best). Cancellation outranks every other reason.
func (st *run) finish(stop string) *Result {
	res := st.res
	res.Matches = collect(st.C, st.pred)
	if stop == noGain && st.best != nil {
		res.Matches = st.best
	}
	select {
	case <-st.cfg.Cancel:
		stop = "canceled"
	default:
	}
	res.StopReason = stop
	if st.ds.Truth != nil {
		res.True = metrics.Evaluate(res.Matches, st.ds.Truth)
		res.HasTrue = true
	}
	res.Accounting = st.runner.Stats()
	return res
}

func (st *run) addTraining(ls []record.Labeled) {
	for _, l := range ls {
		if !st.seen.Has(l.Pair) {
			st.seen.Add(l.Pair)
			st.training = append(st.training, l)
		}
	}
}

// vector returns a training pair's vector. C arrives in (a, b) order (the
// Sink contract), so a pair inside C is a binary search away, and one
// outside it — a seed or blocking-sample pair the rules removed — is
// computed afresh. A vector is a pure function of its pair, so a miss costs
// time only.
func (st *run) vector(p record.Pair) []float64 {
	i := sort.Search(len(st.C), func(i int) bool { return !st.C[i].Less(p) })
	if i < len(st.C) && st.C[i] == p {
		return st.X[i]
	}
	return st.ex.Vector(p)
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

// Package active implements Corleone's crowdsourced active learning loop
// (§5.2–5.3): train a random forest, pick the most informative examples by
// prediction entropy, have the crowd label them, retrain — monitoring the
// forest's confidence on a held-aside set and stopping when the confidence
// converges, reaches a near-absolute value, or degrades past its peak.
package active

import (
	"fmt"
	"math/rand"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/stats"
)

// The §5 parameters the paper fixes.
const (
	// BatchQ is q, the examples labeled per iteration (paper: 20).
	BatchQ = 20
	// PoolP is p, the entropy-ranked pool the batch is sampled from
	// (paper: 100).
	PoolP = 100
	// MonitorFrac is the fraction of C set aside as the monitoring set V
	// (paper: 3%).
	MonitorFrac = 0.03
	// SmoothW is the smoothing window w over confidence values (paper: 5).
	SmoothW = 5
	// Eps is the ε of the stopping patterns (paper: 0.01).
	Eps = 0.01
	// Policy is the voting scheme for training labels. The paper found
	// 2+1 adequate for training data (§8.2).
	Policy = crowd.Policy21
)

// Config carries the §5 settings a caller may set; the ablations vary the
// stopping windows and the selection strategy.
type Config struct {
	// Forest configures the underlying random forest learner.
	Forest forest.Config
	// NConverged, NHigh, NDegrade are the pattern window lengths
	// (paper: 20, 3, 15).
	NConverged int
	NHigh      int
	NDegrade   int
	// MaxIterations is a safety cap on training iterations.
	MaxIterations int
	// Seed drives example selection and the monitor split.
	Seed int64
	// Strategy selects examples for labeling: StrategyEntropy (default)
	// is the paper's §5.2 informativeness sampling; StrategyRandom is the
	// ablation baseline that draws uniformly from the pool.
	Strategy Strategy
}

// Strategy names an example-selection policy.
type Strategy int

const (
	// StrategyEntropy is the paper's scheme: top-p by prediction entropy,
	// then entropy-weighted sampling of q for diversity.
	StrategyEntropy Strategy = iota
	// StrategyRandom draws the batch uniformly — what a developer's
	// random training sample does (Table 2's Baseline 1/2 regime).
	StrategyRandom
)

// String names the strategy.
func (s Strategy) String() string {
	if s == StrategyRandom {
		return "random"
	}
	return "entropy"
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{
		Forest:        forest.Defaults(),
		NConverged:    20,
		NHigh:         3,
		NDegrade:      15,
		MaxIterations: 150,
		Seed:          1,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.NConverged <= 0 {
		c.NConverged = d.NConverged
	}
	if c.NHigh <= 0 {
		c.NHigh = d.NHigh
	}
	if c.NDegrade <= 0 {
		c.NDegrade = d.NDegrade
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = d.MaxIterations
	}
	return c
}

// StopReason records why training stopped.
type StopReason string

const (
	// StopConverged: confidence stabilized within a 2ε band for
	// NConverged iterations (Figure 3.a).
	StopConverged StopReason = "converged"
	// StopNearAbsolute: confidence at least 1-ε for NHigh iterations
	// (Figure 3.b).
	StopNearAbsolute StopReason = "near-absolute"
	// StopDegrading: confidence peaked and then degraded across two
	// NDegrade windows; the peak classifier is returned.
	StopDegrading StopReason = "degrading"
	// StopPoolExhausted: no unlabeled examples remain to select.
	StopPoolExhausted StopReason = "pool-exhausted"
	// StopMaxIterations: the safety cap was reached.
	StopMaxIterations StopReason = "max-iterations"
	// StopBudget: the runner's Stop hook fired.
	StopBudget StopReason = "budget"
)

// Trace records the confidence series for Figure 3 and run diagnostics.
type Trace struct {
	// Confidence is conf(V) per iteration, unsmoothed.
	Confidence []float64
	// Smoothed is the final smoothed series.
	Smoothed []float64
	// Reason is why training stopped.
	Reason StopReason
	// Iterations is the number of training iterations (batches consumed).
	Iterations int
	// PickedIteration is the iteration whose classifier was returned
	// (differs from Iterations when the degrading pattern rolls back).
	PickedIteration int
	// LabelsAcquired is the number of training examples obtained from the
	// crowd (cache hits included).
	LabelsAcquired int
}

// Result is the outcome of an active learning run.
type Result struct {
	// Forest is the selected classifier (the peak-confidence one when the
	// degrading pattern fired).
	Forest *forest.Forest
	// Training is every labeled example used, seeds included.
	Training []record.Labeled
	// Trace is the diagnostic record.
	Trace Trace
}

// Learn runs crowdsourced active learning over the candidate pool. pairs
// and X are the pool C and its feature vectors (aligned). seeds are the
// initially labeled examples with their vectors seedX; they may or may not
// belong to C.
func Learn(runner *crowd.Runner, pairs []record.Pair, X [][]float64,
	seeds []record.Labeled, seedX [][]float64, cfg Config) (*Result, error) {

	cfg = cfg.withDefaults()
	if len(pairs) != len(X) {
		return nil, fmt.Errorf("active: %d pairs but %d vectors", len(pairs), len(X))
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("active: no seed examples")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Set aside the monitoring set V (§5.3): a random MonitorFrac of C,
	// excluded from example selection.
	nMon := int(float64(len(pairs)) * MonitorFrac)
	if nMon < 1 {
		nMon = 1
	}
	if nMon > len(pairs) {
		nMon = len(pairs)
	}
	monIdx := stats.SampleIndices(rng, len(pairs), nMon)
	inMonitor := make([]bool, len(pairs))
	V := make([][]float64, 0, nMon)
	for _, i := range monIdx {
		inMonitor[i] = true
		V = append(V, X[i])
	}

	// Training state. Seeds that belong to the pool are consumed from the
	// start; only the seeds are hashed, so this costs one lookup per pool
	// pair and no |C|-entry map.
	trainX := make([][]float64, 0, len(seeds)+cfg.MaxIterations*BatchQ)
	trainY := make([]bool, 0, cap(trainX))
	training := make([]record.Labeled, 0, cap(trainX))
	addExample := func(l record.Labeled, v []float64) {
		trainX = append(trainX, v)
		trainY = append(trainY, l.Match)
		training = append(training, l)
	}
	seedPairs := make(record.PairSet, len(seeds))
	for i, s := range seeds {
		addExample(s, seedX[i])
		seedPairs.Add(s.Pair)
	}
	consumed := make([]bool, len(pairs))
	for i, p := range pairs {
		if seedPairs.Has(p) {
			consumed[i] = true
		}
	}
	// rowOf finds the pool row of a pair the crowd just labeled: one of the
	// rows asked (the crowd returns them reordered, cached answers first).
	rowOf := func(p record.Pair, asked []int) int {
		for _, i := range asked {
			if pairs[i] == p {
				return i
			}
		}
		return -1
	}

	var (
		trace   Trace
		forests []*forest.Forest
		r       ranker
	)
	fcfg := cfg.Forest
	baseSeed := cfg.Seed

	for iter := 0; ; iter++ {
		fcfg.Seed = baseSeed + int64(iter)*7919
		f := forest.Train(trainX, trainY, fcfg)
		forests = append(forests, f)
		trace.Confidence = append(trace.Confidence, r.sc.MeanConfidence(f, V))
		trace.Iterations = iter + 1

		if reason, ok := shouldStop(trace.Confidence, cfg); ok {
			trace.Reason = reason
			break
		}
		if runner.Stopped() {
			trace.Reason = StopBudget
			break
		}
		if iter+1 >= cfg.MaxIterations {
			trace.Reason = StopMaxIterations
			break
		}

		// Select the q-example batch: top p by entropy, then
		// entropy-weighted sampling for diversity (§5.2).
		batch := r.selectBatch(rng, f, X, consumed, inMonitor, cfg)
		if len(batch) == 0 {
			trace.Reason = StopPoolExhausted
			break
		}
		req := make([]record.Pair, len(batch))
		for i, bi := range batch {
			req[i] = pairs[bi]
		}
		labeled := runner.LabelTrainingBatch(req, Policy)
		if len(labeled) == 0 {
			trace.Reason = StopPoolExhausted
			break
		}
		for _, l := range labeled {
			row := rowOf(l.Pair, batch)
			if row < 0 {
				return nil, fmt.Errorf("active: crowd labeled %v, which was not asked", l.Pair)
			}
			consumed[row] = true
			addExample(l, X[row])
			trace.LabelsAcquired++
		}
	}

	trace.Smoothed = stats.SmoothWindow(trace.Confidence, SmoothW)
	picked := len(forests) - 1
	if trace.Reason == StopDegrading {
		// §5.3: select the last classifier before the degrade — the one at
		// the smoothed-confidence peak.
		best := 0
		for i, v := range trace.Smoothed {
			if v > trace.Smoothed[best] {
				best = i
			}
		}
		picked = best
	}
	trace.PickedIteration = picked + 1
	return &Result{Forest: forests[picked], Training: training, Trace: trace}, nil
}

type cand struct {
	idx     int
	entropy float64
}

// before is the ranking order: entropy descending, pool index ascending.
// Indexes are unique, so the order is strict and total, and the p best
// candidates in rank order are one fixed sequence however they are found.
func (c cand) before(d cand) bool {
	//corlint:allow float-eq — deterministic tie-break: exactly equal entropies must fall through to the index comparison, identically on every run
	return c.entropy > d.entropy || (c.entropy == d.entropy && c.idx < d.idx)
}

// ranker is the reusable workspace for example selection (§5.2) and
// monitoring-set scoring (§5.3). Its buffers — the forest scorer, the
// entropy scratch, the top-p heap and the weighted sampler — are sized to
// the pool on the first call and retained, so ranking is zero-alloc in
// steady state even though the loop re-scores the entire pool after every
// retrain. The zero value is ready to use.
type ranker struct {
	sc      forest.Scorer
	sampler stats.WeightedSampler
	ents    []float64 // entropy per pool row; -1 on consumed and monitor rows
	top     []cand    // the p best candidates, best first
	weights []float64 // top-p entropies for weighted sampling
	pool    []int     // eligible pool indices (random strategy)
	perm    []int     // SampleIndicesInto scratch (random strategy)
	out     []int     // selected pool indices, valid until next call

	// score is the par.For body that fills ents, built once: like
	// forest.Scorer's, it captures only the ranker and reads the call's
	// arguments from the fields below, so a pass allocates no closure.
	score               func(lo, hi int)
	f                   *forest.Forest
	X                   [][]float64
	consumed, inMonitor []bool
}

// selectBatch returns pool indices for the next labeling batch. The result
// aliases the ranker's buffers and is valid until the next call.
func (r *ranker) selectBatch(rng *rand.Rand, f *forest.Forest, X [][]float64,
	consumed, inMonitor []bool, cfg Config) []int {

	if cfg.Strategy == StrategyRandom {
		if cap(r.pool) < len(X) {
			r.pool = make([]int, 0, len(X))
		}
		pool := r.pool[:0]
		for i := range X {
			if !consumed[i] && !inMonitor[i] {
				pool = append(pool, i)
			}
		}
		r.pool = pool
		if cap(r.perm) < len(pool) {
			r.perm = make([]int, len(pool))
		}
		out := r.out[:0]
		for _, j := range stats.SampleIndicesInto(rng, len(pool), BatchQ, r.perm) {
			out = append(out, pool[j])
		}
		r.out = out
		return out
	}

	// Score X where it lies: each chunk skips its own consumed and monitor
	// rows, so no eligible-row copy is built on the calling goroutine, and
	// every entropy lands at its row's slot whatever the chunking.
	if cap(r.ents) < len(X) {
		r.ents = make([]float64, len(X))
	}
	r.ents = r.ents[:len(X)]
	if r.score == nil {
		r.score = func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if r.consumed[i] || r.inMonitor[i] {
					r.ents[i] = -1
				} else {
					r.ents[i] = r.f.Entropy(r.X[i])
				}
			}
		}
	}
	r.f, r.X, r.consumed, r.inMonitor = f, X, consumed, inMonitor
	par.For(len(X), r.score)
	r.f, r.X, r.consumed, r.inMonitor = nil, nil, nil, nil

	r.top = topP(r.ents, PoolP, r.top)
	top := r.top
	if len(top) == 0 {
		return nil
	}
	if cap(r.weights) < len(top) {
		r.weights = make([]float64, len(top))
	}
	weights := r.weights[:len(top)]
	for i, c := range top {
		weights[i] = c.entropy
	}
	picked := r.sampler.Sample(rng, weights, BatchQ)
	out := r.out[:0]
	for _, j := range picked {
		out = append(out, top[j].idx)
	}
	r.out = out
	return out
}

// topP returns the p highest-ranked rows of ents (all the eligible ones if
// there are fewer), best first, reusing buf; a negative entry marks a row
// that is not eligible. The first p eligible rows form a heap whose root is
// the worst of them; every later row costs a single comparison with the
// root unless it enters the top p (an ineligible row's -1 ranks after every
// entropy, so it never does); a final heap sort puts the survivors in rank
// order.
func topP(ents []float64, p int, buf []cand) []cand {
	h := buf[:0]
	if p <= 0 {
		return h
	}
	i := 0
	for ; i < len(ents) && len(h) < p; i++ {
		if ents[i] >= 0 {
			h = append(h, cand{idx: i, entropy: ents[i]})
		}
	}
	k := len(h)
	// down restores the heap order (every parent ranks after its children)
	// below slot i within h[:n].
	down := func(i, n int) {
		for {
			worst := i
			for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
				if h[worst].before(h[c]) {
					worst = c
				}
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for j := k/2 - 1; j >= 0; j-- {
		down(j, k)
	}
	for ; i < len(ents); i++ {
		if c := (cand{idx: i, entropy: ents[i]}); c.before(h[0]) {
			h[0] = c
			down(0, k)
		}
	}
	for n := k - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		down(0, n)
	}
	return h
}

// shouldStop checks the three §5.3 stopping patterns over the smoothed
// confidence series.
func shouldStop(confidence []float64, cfg Config) (StopReason, bool) {
	s := stats.SmoothWindow(confidence, SmoothW)
	n := len(s)

	// Near-absolute confidence: last NHigh values >= 1-ε.
	if n >= cfg.NHigh {
		high := true
		for _, v := range s[n-cfg.NHigh:] {
			if v < 1-Eps {
				high = false
				break
			}
		}
		if high {
			return StopNearAbsolute, true
		}
	}

	// Converged confidence: last NConverged values within a 2ε band.
	if n >= cfg.NConverged {
		win := s[n-cfg.NConverged:]
		lo, hi := win[0], win[0]
		for _, v := range win {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo <= 2*Eps {
			return StopConverged, true
		}
	}

	// Degrading confidence: max of the earlier NDegrade window exceeds the
	// max of the later one by more than ε.
	if n >= 2*cfg.NDegrade {
		w1 := s[n-2*cfg.NDegrade : n-cfg.NDegrade]
		w2 := s[n-cfg.NDegrade:]
		if stats.Max(w1) > stats.Max(w2)+Eps {
			return StopDegrading, true
		}
	}
	return "", false
}

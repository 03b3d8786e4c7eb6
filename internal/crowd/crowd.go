// Package crowd implements Corleone's crowd engagement layer (§8): a Crowd
// abstraction over answer sources, the random-worker simulation model used
// by the paper's own sensitivity analysis, HIT batching (10 questions per
// HIT), the 2+1 / strong-majority / hybrid voting schemes, the label cache
// with reuse semantics, and per-question cost accounting.
package crowd

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
)

// Crowd produces one worker's answer to "does pair p match?". Each call
// represents a distinct worker answering one question.
type Crowd interface {
	Answer(p record.Pair) bool
}

// CrowdErr is the error-aware answer path. A crowd that can genuinely fail
// — a remote marketplace with outages, timeouts, straggling workers —
// implements it alongside Answer; the Runner detects it and re-solicits
// transient failures with backoff instead of recording a fabricated
// answer. Implementations classify failures by wrapping ErrUnavailable,
// ErrTimeout, or ErrCanceled (matched with errors.Is).
type CrowdErr interface {
	Crowd
	AnswerErr(p record.Pair) (bool, error)
}

var (
	// ErrUnavailable reports that the crowd channel failed before an answer
	// could be obtained (transport failure, marketplace outage). Nothing was
	// paid; the caller may retry.
	ErrUnavailable = errors.New("crowd: unavailable")
	// ErrTimeout reports that the crowd accepted the question but produced
	// no answer within the adapter's deadline — an abandoned or straggling
	// assignment. The caller may retry.
	ErrTimeout = errors.New("crowd: answer timed out")
	// ErrCanceled reports that cancellation fired while an answer was in
	// flight. Never retried.
	ErrCanceled = errors.New("crowd: canceled")
)

// Oracle is a perfect crowd: every answer equals the ground truth. It is
// the 0%-error point of the paper's sensitivity analysis and the reference
// crowd for tests.
type Oracle struct {
	Truth *record.GroundTruth
}

// Answer implements Crowd.
func (o *Oracle) Answer(p record.Pair) bool { return o.Truth.Match(p) }

// Simulated is the random-worker model of [Ipeirotis et al.] the paper uses
// for simulation (§9.3): each answer independently flips the true label
// with probability ErrorRate. Safe for concurrent use.
type Simulated struct {
	Truth     *record.GroundTruth
	ErrorRate float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewSimulated builds a simulated crowd with the given error rate and seed.
func NewSimulated(truth *record.GroundTruth, errorRate float64, seed int64) *Simulated {
	return &Simulated{Truth: truth, ErrorRate: errorRate, rng: rand.New(rand.NewSource(seed))}
}

// Answer implements Crowd.
func (s *Simulated) Answer(p record.Pair) bool {
	truth := s.Truth.Match(p)
	s.mu.Lock()
	flip := s.rng.Float64() < s.ErrorRate
	s.mu.Unlock()
	if flip {
		return !truth
	}
	return truth
}

// Policy selects the voting scheme for combining noisy answers (§8.2).
type Policy int

const (
	// Policy21 is plain 2+1 majority voting: two answers, a third to break
	// disagreement.
	Policy21 Policy = iota
	// PolicyStrong always escalates: solicit until the majority leads by
	// at least 3, or 7 answers total.
	PolicyStrong
	// PolicyHybrid is the paper's final scheme: 2+1, escalating to strong
	// majority only when the running majority is positive, because false
	// positives distort recall estimation far more than false negatives.
	PolicyHybrid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Policy21:
		return "2+1"
	case PolicyStrong:
		return "strong"
	case PolicyHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// Accounting tracks crowd spend: every solicited answer costs
// PricePerQuestion, and Pairs counts distinct pairs ever labeled (the
// "# Pairs" columns of Tables 2–4).
type Accounting struct {
	// Answers is the total number of worker answers solicited.
	Answers int
	// Pairs is the number of distinct pairs labeled.
	Pairs int
	// Cost is the total dollars paid to the crowd.
	Cost float64
	// HITs is the number of 10-question HITs posted (training batches).
	HITs int
	// Degraded reports that at least one answer could not be obtained this
	// session: the crowd channel failed past the retry budget and the
	// affected pairs were left unsettled rather than guessed. It is not
	// restored on resume — a resumed session that re-solicits successfully
	// clears the condition by construction.
	Degraded bool
}

// entry is a cached labeling of one pair: all answers solicited so far and
// the policy strength the stored label satisfies.
type entry struct {
	answers []bool
	label   bool
	settled Policy // strongest policy whose stopping rule the answers satisfy
	voted   bool   // a stopping rule completed; false while votes are in flight
	hasSeed bool   // a user-supplied seed label: authoritative, never re-asked
}

// seedEntry is the cache entry of a user-supplied seed label.
func seedEntry(label bool) *entry {
	return &entry{label: label, settled: PolicyStrong, voted: true, hasSeed: true}
}

// Runner engages the crowd: it owns the label cache, voting, HIT packing,
// and accounting. Not safe for concurrent use; Corleone's control flow is
// sequential between crowd calls, as the paper's is. Concurrent pipelines
// give each run its own Runner — runs share nothing.
type Runner struct {
	crowd Crowd
	price float64
	cache map[record.Pair]*entry
	acct  Accounting

	// paid holds the answers a journal restored for each pair
	// (LoadLabelEntry). solicit serves them in order before it asks the
	// crowd, so a resumed run re-derives every vote, HIT and accounting
	// field of the run it continues. prepaid is set once chargeRestored has
	// charged all of them; serving one after that is free.
	paid    map[record.Pair][]bool
	prepaid bool

	// dirty tracks pairs that gained a live answer (or a seed) since the
	// last AppendLabels, so a journal can flush incrementally instead of
	// rewriting the whole cache. Serving a restored answer does not dirty
	// a pair: the journal already holds it.
	dirty map[record.Pair]struct{}
	// sinceFlush counts pairs settled since the last flush; once a Label
	// call brings it to HITSize the runner treats it as a batch boundary
	// and fires AfterBatch.
	sinceFlush int

	// Retry bounds re-solicitation when the crowd implements CrowdErr.
	// Unset fields select the defaults: 3 attempts, 50ms base wait, 1s cap
	// (DESIGN.md §8.2). A plain Crowd cannot fail and is never retried.
	Retry retry.Policy

	// AfterBatch, when non-nil, is called at crowd batch boundaries — after
	// each training batch, and after every HITSize labels settled by
	// individual Label calls. A journal flushes settled labels here so a
	// killed process re-pays at most one batch.
	AfterBatch func()
	// Cancel, when non-nil, makes the runner stop engaging the crowd as
	// soon as the channel closes: no further questions are solicited, and an
	// answer returned by a crowd that observed the same cancellation (e.g. a
	// remote marketplace adapter that aborts polling with a fabricated
	// answer) is discarded rather than recorded. Entries interrupted
	// mid-vote keep their genuine answers but stay unsettled, so a resumed
	// run tops them up instead of trusting a partial majority.
	Cancel <-chan struct{}
}

// HITSize is the number of questions per HIT (§8.1).
const HITSize = 10

// NewRunner wraps a crowd with the given per-question price.
func NewRunner(c Crowd, pricePerQuestion float64) *Runner {
	return &Runner{
		crowd: c,
		price: pricePerQuestion,
		cache: make(map[record.Pair]*entry),
		dirty: make(map[record.Pair]struct{}),
	}
}

// Stats returns a copy of the accounting so far.
func (r *Runner) Stats() Accounting { return r.acct }

// SeedLabels installs the user-supplied labeled examples (§3's two positive
// and two negative seeds) into the cache as authoritative labels that never
// hit the crowd. A pair already cached as that seed — installed by an
// earlier call, or replayed from a journal — is left alone, so re-seeding
// dirties nothing and a resumed run does not re-journal its seeds.
func (r *Runner) SeedLabels(seeds []record.Labeled) {
	for _, s := range seeds {
		if e, ok := r.cache[s.Pair]; ok && e.hasSeed && e.label == s.Match {
			continue
		}
		r.cache[s.Pair] = seedEntry(s.Match)
		r.markDirty(s.Pair)
	}
}

func (r *Runner) markDirty(p record.Pair) {
	if r.dirty == nil {
		r.dirty = make(map[record.Pair]struct{})
	}
	r.dirty[p] = struct{}{}
}

// batchBoundary fires the AfterBatch hook and resets the settle counter.
func (r *Runner) batchBoundary() {
	r.sinceFlush = 0
	if r.AfterBatch != nil {
		r.AfterBatch()
	}
}

// AllLabeled returns every pair the runner has a settled label for (seeds
// and crowd-voted), sorted by pair so callers iterate deterministically.
// Used to reuse labels across modules (§8.3) without re-asking the crowd.
func (r *Runner) AllLabeled() []record.Labeled {
	pairs := make([]record.Pair, 0, len(r.cache))
	for p, e := range r.cache {
		if e.hasSeed || (e.voted && len(e.answers) >= 2) {
			pairs = append(pairs, p)
		}
	}
	record.SortPairs(pairs)
	out := make([]record.Labeled, len(pairs))
	for i, p := range pairs {
		out[i] = record.Labeled{Pair: p, Match: r.cache[p].label}
	}
	return out
}

// Cached reports whether p already has a label satisfying the policy, and
// the label if so.
func (r *Runner) Cached(p record.Pair, policy Policy) (bool, bool) {
	e, ok := r.cache[p]
	if !ok {
		return false, false
	}
	if !r.satisfies(e, policy) {
		return false, false
	}
	return e.label, true
}

// satisfies reports whether e's answers meet the stopping rule of policy.
func (r *Runner) satisfies(e *entry, policy Policy) bool {
	if e.hasSeed {
		return true
	}
	if !e.voted {
		// Votes still in flight (interrupted by a cancel): a partial answer
		// set must not masquerade as a settled label, even if its count
		// happens to meet a stopping rule's minimum.
		return false
	}
	switch policy {
	case Policy21:
		return e.settled >= Policy21 && len(e.answers) >= 2
	case PolicyHybrid:
		if e.settled == PolicyStrong || e.settled == PolicyHybrid {
			return true
		}
		// A 2+1 label is enough under hybrid only if it is negative.
		return len(e.answers) >= 2 && !e.label
	case PolicyStrong:
		return e.settled == PolicyStrong
	}
	return false
}

// canceled reports whether the runner's Cancel channel has closed.
func (r *Runner) canceled() bool {
	if r.Cancel == nil {
		return false
	}
	select {
	case <-r.Cancel:
		return true
	default:
		return false
	}
}

// askCrowd obtains one answer, re-soliciting transient failures through
// the retry policy when the crowd implements CrowdErr. A plain Crowd cannot
// fail and is asked exactly once. Returns ErrCanceled as soon as the runner
// is canceled (including mid-backoff); ErrUnavailable or ErrTimeout only
// after the retry budget is exhausted.
func (r *Runner) askCrowd(p record.Pair) (bool, error) {
	ce, ok := r.crowd.(CrowdErr)
	if !ok {
		return r.crowd.Answer(p), nil
	}
	policy := r.Retry.Or(retry.Policy{Attempts: 3, Base: 50 * time.Millisecond, Max: time.Second})
	notCanceled := func(err error) bool { return !errors.Is(err, ErrCanceled) }
	var a bool
	err := policy.Do(retry.Call{Cancel: r.Cancel, Retryable: notCanceled}, func(int) (err error) {
		if r.canceled() {
			return ErrCanceled
		}
		a, err = ce.AnswerErr(p)
		return err
	})
	switch {
	case err == nil:
		return a, nil
	case errors.Is(err, ErrCanceled), errors.Is(err, retry.ErrCanceled):
		return false, ErrCanceled
	}
	return false, err
}

// solicit records one more answer on p and reports whether it did. While
// p has restored answers left (see LoadLabelEntry) it serves the next one,
// charging it until chargeRestored has; past them it asks the crowd. Past
// them, a canceled runner neither contacts the crowd nor records
// anything, and an answer that arrives while cancellation is in effect is
// discarded — a canceled crowd adapter (e.g. platform.RemoteCrowd) may
// return a fabricated answer, and recording one would corrupt the label
// cache and accounting. A crowd failure that survives the retry budget
// also records nothing and marks the accounting Degraded: the caller
// leaves the entry unsettled, the run continues with the labels it has,
// and a later round or a resumed session settles the pair.
func (r *Runner) solicit(p record.Pair, e *entry) bool {
	if paid := r.paid[p]; len(e.answers) < len(paid) {
		e.answers = append(e.answers, paid[len(e.answers)])
		if !r.prepaid {
			r.charge()
		}
		return true
	}
	r.chargeRestored()
	if r.canceled() {
		return false
	}
	a, err := r.askCrowd(p)
	if err != nil {
		if !errors.Is(err, ErrCanceled) {
			r.acct.Degraded = true
		}
		return false
	}
	if r.canceled() {
		return false
	}
	e.answers = append(e.answers, a)
	r.markDirty(p)
	r.charge()
	return true
}

// charge pays for one answer. Cost accumulates per answer, so it is
// bit-identical however a run's answers are split across sessions.
func (r *Runner) charge() {
	r.acct.Answers++
	r.acct.Cost += r.price
}

// chargeRestored runs at the first question a resumed run cannot serve
// from its restored answers — asked live, or refused because the run was
// canceled. Up to there the run has retraced the journaled one and paid
// for each restored answer as it re-asked it; from there it may take a
// different path and never re-ask the rest. So every restored answer not
// yet re-asked is charged now, its pair counted if this run never labeled
// it, and re-asking it later is free. Every answer costs the same, so the
// order of the charges does not matter.
func (r *Runner) chargeRestored() {
	if r.prepaid {
		return
	}
	r.prepaid = true
	for p, paid := range r.paid {
		e, ok := r.cache[p]
		if !ok {
			e = &entry{}
			r.cache[p] = e
			r.acct.Pairs++
		}
		for i := len(e.answers); i < len(paid); i++ {
			r.charge()
		}
	}
}

// abortVoting ends a Label call interrupted by cancellation or by a crowd
// failure that exhausted the retry budget. Genuine answers already
// recorded are kept (and stay journal-dirty, so they are flushed as
// in-flight votes), but the entry is not settled — a resumed run or a
// later labeling round tops the votes up under the full stopping rule. An
// entry that had settled at a weaker policy before this call keeps that
// label.
func (r *Runner) abortVoting(e *entry) bool {
	if !e.voted {
		e.label, _ = majority(e.answers)
	}
	return e.label
}

func majority(answers []bool) (label bool, lead int) {
	pos := 0
	for _, a := range answers {
		if a {
			pos++
		}
	}
	neg := len(answers) - pos
	if pos >= neg {
		return true, pos - neg
	}
	return false, neg - pos
}

// Label returns the crowd label for p under the given policy, soliciting
// only as many new answers as the cache requires (§8.3). The first time a
// pair is labeled it counts toward Accounting.Pairs. Individual Label
// calls (rule evaluation, estimation sampling) have no explicit batch
// structure, so every HITSize settles are a batch boundary: journals
// flush at the same granularity as posted HITs.
func (r *Runner) Label(p record.Pair, policy Policy) bool {
	lbl := r.label(p, policy)
	if r.sinceFlush >= HITSize {
		r.batchBoundary()
	}
	return lbl
}

// label is Label without the boundary: it counts a settle in sinceFlush
// and leaves the flush to its caller, so a training batch flushes once, at
// its end.
func (r *Runner) label(p record.Pair, policy Policy) bool {
	e, ok := r.cache[p]
	if ok && r.satisfies(e, policy) {
		return e.label
	}
	if r.canceled() {
		// A canceled run must not engage the crowd or record new state;
		// return the best cached information. Callers discard results
		// produced after cancellation anyway.
		r.chargeRestored()
		if ok {
			return e.label
		}
		return false
	}
	if !ok {
		e = &entry{}
		r.cache[p] = e
		r.acct.Pairs++
	}

	// Phase 1: 2+1. Reuse cached answers; top up to two, then break ties.
	for len(e.answers) < 2 {
		if !r.solicit(p, e) {
			return r.abortVoting(e)
		}
	}
	if _, lead := majority(e.answers); len(e.answers) == 2 && lead == 0 {
		if !r.solicit(p, e) {
			return r.abortVoting(e)
		}
	}
	lbl, lead := majority(e.answers)

	strong := policy == PolicyStrong || (policy == PolicyHybrid && lbl)
	if strong {
		// Phase 2: strong majority — lead >= 3 or 7 answers (§8.2).
		for lead < 3 && len(e.answers) < 7 {
			if !r.solicit(p, e) {
				return r.abortVoting(e)
			}
			lbl, lead = majority(e.answers)
		}
		e.settled = PolicyStrong
	} else {
		e.settled = Policy21
	}
	e.label = lbl
	e.voted = true
	r.sinceFlush++
	return lbl
}

// LabelTrainingBatch implements the §8.3 HIT-packing semantics for an
// active-learning batch (nominally 20 examples, two 10-question HITs):
//
//   - k examples already in the cache, k > HITSize: return just those k
//     (the remaining examples are skipped this round).
//   - k <= HITSize: pack HITSize uncached examples into one HIT (or all of
//     them if fewer remain), label them, and return them plus the k cached.
//   - k == 0 and len(pairs) == 20: the normal case — two full HITs.
//
// The returned batch is what the matcher trains on this iteration. The
// batch is one boundary (AfterBatch), fired after its last label.
func (r *Runner) LabelTrainingBatch(pairs []record.Pair, policy Policy) []record.Labeled {
	defer r.batchBoundary()
	var cached []record.Labeled
	var fresh []record.Pair
	for _, p := range pairs {
		if lbl, ok := r.Cached(p, policy); ok {
			cached = append(cached, record.Labeled{Pair: p, Match: lbl})
		} else {
			fresh = append(fresh, p)
		}
	}
	if len(cached) > HITSize || len(fresh) == 0 {
		return cached
	}
	// Pack complete HITs out of the uncached examples. With the nominal
	// batch of 20 and k <= 10 cached, this is exactly one or two HITs.
	want := len(fresh)
	if len(cached) > 0 && want > HITSize {
		want = HITSize
	}
	out := cached
	for i := 0; i < want; i++ {
		out = append(out, record.Labeled{Pair: fresh[i], Match: r.label(fresh[i], policy)})
	}
	r.acct.HITs += (want + HITSize - 1) / HITSize
	return out
}

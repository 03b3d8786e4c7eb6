package faultkit

// Degraded-mode accounting: when the crowd channel fails past the retry
// budget the Runner must leave the pair unsettled and flag the run
// Degraded — never fabricate a label, never pay for an answer it did not
// get — and a later round or a resumed session must settle the pair at
// exactly the clean-run price.

import (
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
	"github.com/corleone-em/corleone/internal/runsvc"
)

func fastRetry(attempts int) retry.Policy {
	return retry.Policy{Attempts: attempts, Base: time.Millisecond, Max: 2 * time.Millisecond}
}

func TestRunnerRetriesThroughTransientFaults(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	f := &FlakyCrowd{Inner: &crowd.Oracle{Truth: truth}, FailFirst: 2}
	r := crowd.NewRunner(f, 0.01)
	r.Retry = fastRetry(4)

	if !r.Label(pair, crowd.Policy21) {
		t.Fatal("label should settle true once the transient faults pass")
	}
	st := r.Stats()
	if st.Degraded {
		t.Error("faults absorbed within the retry budget must not mark the run degraded")
	}
	if f.Fails() != 2 {
		t.Errorf("injected fails = %d, want 2", f.Fails())
	}
	if st.Answers != f.Asks()-f.Fails() {
		t.Errorf("paid answers = %d, want %d (only successful asks are paid)", st.Answers, f.Asks()-f.Fails())
	}
	if st.Cost != float64(st.Answers)*0.01 {
		t.Errorf("cost = %v, want %v", st.Cost, float64(st.Answers)*0.01)
	}
}

func TestRunnerDegradedOnExhaustedRetries(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	f := &FlakyCrowd{Inner: &crowd.Oracle{Truth: truth}}
	f.SetDown(true)
	r := crowd.NewRunner(f, 0.01)
	r.Retry = fastRetry(3)

	r.Label(pair, crowd.PolicyHybrid)
	st := r.Stats()
	if !st.Degraded {
		t.Error("exhausted retries must mark the accounting degraded")
	}
	if st.Answers != 0 || st.Cost != 0 {
		t.Errorf("accounting after total outage = %d answers / $%v, want 0 / $0", st.Answers, st.Cost)
	}
	if st.Pairs != 1 {
		t.Errorf("pairs touched = %d, want 1", st.Pairs)
	}
	if _, ok := r.Cached(pair, crowd.PolicyHybrid); ok {
		t.Error("a pair that got no answers must stay unsettled, not carry a fabricated label")
	}

	// The outage ends: the same runner settles the pair with real answers
	// at the normal price. Degraded stays set — it reports that this
	// session ran short-handed at some point, which the operator must see.
	f.SetDown(false)
	if !r.Label(pair, crowd.PolicyHybrid) {
		t.Fatal("label should settle true after the outage")
	}
	st = r.Stats()
	if _, ok := r.Cached(pair, crowd.PolicyHybrid); !ok {
		t.Error("pair should be settled after the outage ended")
	}
	if st.Answers == 0 || st.Cost != float64(st.Answers)*0.01 {
		t.Errorf("post-outage accounting = %d answers / $%v; cost must equal answers x price", st.Answers, st.Cost)
	}
	if !st.Degraded {
		t.Error("Degraded must stay set for the rest of the session")
	}
}

func TestRunnerCanceledIsNotDegraded(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	f := &FlakyCrowd{Inner: &crowd.Oracle{Truth: truth}}
	cancel := make(chan struct{})
	close(cancel)
	r := crowd.NewRunner(f, 0.01)
	r.Retry = fastRetry(3)
	r.Cancel = cancel

	r.Label(pair, crowd.PolicyHybrid)
	st := r.Stats()
	if st.Degraded {
		t.Error("cancellation is an operator action, not a degraded channel")
	}
	if f.Asks() != 0 {
		t.Errorf("canceled runner engaged the crowd %d times, want 0", f.Asks())
	}
}

// scriptedCrowd fails and succeeds per a fixed per-ask script (nil entry =
// answer from truth), for pinning exact mid-vote failure positions.
type scriptedCrowd struct {
	truth  *record.GroundTruth
	script []error
	i      int
}

func (s *scriptedCrowd) AnswerErr(p record.Pair) (bool, error) {
	var err error
	if s.i < len(s.script) {
		err = s.script[s.i]
	}
	s.i++
	if err != nil {
		return false, err
	}
	return s.truth.Match(p), nil
}

func (s *scriptedCrowd) Answer(p record.Pair) bool {
	a, err := s.AnswerErr(p)
	return err == nil && a
}

// TestDegradedPairSettledOnResume drives the full degraded lifecycle across
// a process boundary: session 1 records one genuine answer, then the
// channel dies past the retry budget — the pair is journaled as in-flight
// votes, unsettled. Session 2 replays the journal and tops the vote up with
// one more answer. Total spend across both sessions equals the clean-run
// price: the surviving answer is never re-bought.
func TestDegradedPairSettledOnResume(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	dir := t.TempDir()

	// Session 1: ask 1 succeeds, asks 2-4 (the whole retry budget for the
	// second vote) fail.
	flaky := &scriptedCrowd{truth: truth, script: []error{
		nil, crowd.ErrUnavailable, crowd.ErrUnavailable, crowd.ErrUnavailable,
	}}
	r1 := crowd.NewRunner(flaky, 0.01)
	r1.Retry = fastRetry(3)
	r1.Label(pair, crowd.Policy21)
	st1 := r1.Stats()
	if !st1.Degraded || st1.Answers != 1 {
		t.Fatalf("session 1: degraded=%v answers=%d, want true/1", st1.Degraded, st1.Answers)
	}
	if _, ok := r1.Cached(pair, crowd.Policy21); ok {
		t.Fatal("session 1: a one-vote pair must not be settled")
	}
	store, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	jl, err := store.Open("degraded-job")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := jl.FlushLabels(r1); err != nil {
		t.Fatalf("FlushLabels: %v", err)
	}
	jl.Close()

	// Session 2 (fresh process): replay, then label with a healthy crowd.
	store2, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore (resume): %v", err)
	}
	jl2, err := store2.Open("degraded-job")
	if err != nil {
		t.Fatalf("Open (resume): %v", err)
	}
	defer jl2.Close()
	r2 := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	if _, err := jl2.Replay(r2); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if _, ok := r2.Cached(pair, crowd.Policy21); ok {
		t.Fatal("resume: in-flight votes must replay as unsettled")
	}
	if !r2.Label(pair, crowd.Policy21) {
		t.Fatal("resume: label should settle true")
	}
	st2 := r2.Stats()
	if st2.Degraded {
		t.Error("resume: a clean session must not inherit the degraded flag")
	}
	if st2.Answers != 2 {
		t.Errorf("total answers across sessions = %d, want 2 (the surviving vote is reused)", st2.Answers)
	}
	if st2.Cost != float64(st2.Answers)*0.01 {
		t.Errorf("total cost = %v, want %v", st2.Cost, float64(st2.Answers)*0.01)
	}
}

package crowd

import (
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/record"
)

func truth2() *record.GroundTruth {
	return record.NewGroundTruth([]record.Pair{record.P(0, 0), record.P(1, 1)})
}

// scripted is a crowd that returns a fixed answer sequence, then repeats
// the last answer.
type scripted struct {
	answers []bool
	i       int
}

func (s *scripted) Answer(record.Pair) bool {
	if s.i < len(s.answers) {
		a := s.answers[s.i]
		s.i++
		return a
	}
	return s.answers[len(s.answers)-1]
}

// cancelingCrowd mimics platform.RemoteCrowd under cancellation: after a
// set number of genuine answers, it closes the cancel channel mid-answer
// and returns a fabricated false — the shape a marketplace adapter
// produces when told to stop polling. Once canceled, every answer is
// fabricated.
type cancelingCrowd struct {
	truth  *record.GroundTruth
	cancel chan struct{}
	after  int
	calls  int
}

func (c *cancelingCrowd) Answer(p record.Pair) bool {
	c.calls++
	select {
	case <-c.cancel:
		return false
	default:
	}
	if c.calls >= c.after {
		close(c.cancel)
		return false
	}
	return c.truth.Match(p)
}

// TestCancelDiscardsFabricatedVotes proves a canceled runner records
// nothing it did not genuinely pay for: the fabricated answer a canceled
// crowd adapter returns is discarded, the interrupted entry stays
// unsettled, and no further questions are solicited.
func TestCancelDiscardsFabricatedVotes(t *testing.T) {
	c := &cancelingCrowd{truth: truth2(), cancel: make(chan struct{}), after: 3}
	r := NewRunner(c, 0.01)
	r.Cancel = c.cancel

	// Two genuine answers settle the first pair before cancellation.
	if !r.Label(record.P(0, 0), Policy21) {
		t.Fatal("pre-cancel label wrong")
	}
	if st := r.Stats(); st.Answers != 2 || st.Cost != 0.02 {
		t.Fatalf("pre-cancel accounting %+v, want 2 answers at $0.02", st)
	}

	// The third solicit triggers cancellation mid-answer; its fabricated
	// false must not be recorded as a vote.
	r.Label(record.P(0, 1), Policy21)
	if st := r.Stats(); st.Answers != 2 || st.Cost != 0.02 {
		t.Errorf("fabricated answer recorded: %+v", st)
	}
	if _, ok := r.Cached(record.P(0, 1), Policy21); ok {
		t.Error("interrupted entry served as settled")
	}

	// Post-cancel labeling never contacts the crowd again.
	calls := c.calls
	r.Label(record.P(1, 1), PolicyHybrid)
	if c.calls != calls {
		t.Errorf("canceled runner solicited %d more answers", c.calls-calls)
	}
	if st := r.Stats(); st.Answers != 2 {
		t.Errorf("post-cancel accounting %+v, want 2 answers", st)
	}

	// The settled pre-cancel label still serves, and nothing half-voted
	// leaks into the reusable label set.
	if lbl, ok := r.Cached(record.P(0, 0), Policy21); !ok || !lbl {
		t.Error("settled pre-cancel label lost")
	}
	for _, l := range r.AllLabeled() {
		if l.Pair == (record.P(0, 1)) {
			t.Error("unsettled entry in AllLabeled")
		}
	}
}

func TestOracle(t *testing.T) {
	o := &Oracle{Truth: truth2()}
	if !o.Answer(record.P(0, 0)) || o.Answer(record.P(0, 1)) {
		t.Error("oracle answers wrong")
	}
}

func TestSimulatedErrorRate(t *testing.T) {
	s := NewSimulated(truth2(), 0.3, 1)
	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Answer(record.P(0, 0)) != true {
			wrong++
		}
	}
	got := float64(wrong) / n
	if got < 0.27 || got > 0.33 {
		t.Errorf("error rate %v, want ~0.3", got)
	}
}

func TestSimulatedZeroError(t *testing.T) {
	s := NewSimulated(truth2(), 0, 1)
	for i := 0; i < 100; i++ {
		if !s.Answer(record.P(1, 1)) {
			t.Fatal("zero-error crowd answered wrong")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Policy21.String() != "2+1" || PolicyStrong.String() != "strong" ||
		PolicyHybrid.String() != "hybrid" || Policy(9).String() != "unknown" {
		t.Error("Policy.String wrong")
	}
}

func TestLabel21AgreementUsesTwoAnswers(t *testing.T) {
	r := NewRunner(&scripted{answers: []bool{false, false}}, 0.01)
	if got := r.Label(record.P(0, 1), Policy21); got {
		t.Error("label should be negative")
	}
	st := r.Stats()
	if st.Answers != 2 {
		t.Errorf("answers = %d, want 2", st.Answers)
	}
	if st.Cost != 0.02 {
		t.Errorf("cost = %v, want 0.02", st.Cost)
	}
	if st.Pairs != 1 {
		t.Errorf("pairs = %d, want 1", st.Pairs)
	}
}

func TestLabel21DisagreementSolicitsThird(t *testing.T) {
	r := NewRunner(&scripted{answers: []bool{true, false, false}}, 0.01)
	if got := r.Label(record.P(0, 1), Policy21); got {
		t.Error("majority is negative")
	}
	if r.Stats().Answers != 3 {
		t.Errorf("answers = %d, want 3", r.Stats().Answers)
	}
}

func TestHybridEscalatesPositives(t *testing.T) {
	// Two positive answers under hybrid must escalate to strong majority:
	// lead must reach 3, so a third positive answer is needed.
	r := NewRunner(&scripted{answers: []bool{true, true, true}}, 0.01)
	if got := r.Label(record.P(0, 0), PolicyHybrid); !got {
		t.Error("label should be positive")
	}
	if r.Stats().Answers != 3 {
		t.Errorf("answers = %d, want 3 (strong majority needs lead 3)", r.Stats().Answers)
	}
}

func TestHybridNegativeStaysCheap(t *testing.T) {
	r := NewRunner(&scripted{answers: []bool{false, false}}, 0.01)
	if got := r.Label(record.P(0, 1), PolicyHybrid); got {
		t.Error("label should be negative")
	}
	if r.Stats().Answers != 2 {
		t.Errorf("answers = %d, want 2 (negatives don't escalate)", r.Stats().Answers)
	}
}

func TestStrongMajoritySevenAnswerCap(t *testing.T) {
	// Alternating answers never reach lead 3; must stop at 7 and take the
	// majority (4 positive of 7 here).
	r := NewRunner(&scripted{answers: []bool{true, false, true, false, true, false, true}}, 0.01)
	got := r.Label(record.P(0, 0), PolicyStrong)
	if !got {
		t.Error("majority of 7 is positive")
	}
	if r.Stats().Answers != 7 {
		t.Errorf("answers = %d, want 7", r.Stats().Answers)
	}
}

func TestStrongMajorityPaperExamples(t *testing.T) {
	// §8.2: "4 positive and 1 negative answers would return a positive
	// label" — lead 3 reached at 5 answers.
	r := NewRunner(&scripted{answers: []bool{true, false, true, true, true}}, 0.01)
	if got := r.Label(record.P(0, 0), PolicyStrong); !got {
		t.Error("want positive")
	}
	if r.Stats().Answers != 5 {
		t.Errorf("answers = %d, want 5", r.Stats().Answers)
	}
}

func TestCacheReuse(t *testing.T) {
	r := NewRunner(&scripted{answers: []bool{false, false}}, 0.01)
	p := record.P(0, 1)
	r.Label(p, Policy21)
	n := r.Stats().Answers
	r.Label(p, Policy21) // cached
	if r.Stats().Answers != n {
		t.Error("cache miss on second identical request")
	}
	if r.Stats().Pairs != 1 {
		t.Errorf("pairs = %d, want 1", r.Stats().Pairs)
	}
}

func TestCacheUpgradeToStrong(t *testing.T) {
	// A positive 2+1... under 2+1 a positive label settles at Policy21;
	// a later strong request must top up answers, reusing the first two.
	r := NewRunner(&scripted{answers: []bool{true, true, true}}, 0.01)
	p := record.P(0, 0)
	if got := r.Label(p, Policy21); !got {
		t.Fatal("want positive")
	}
	if r.Stats().Answers != 2 {
		t.Fatalf("answers = %d, want 2", r.Stats().Answers)
	}
	if got := r.Label(p, PolicyStrong); !got {
		t.Error("upgraded label should stay positive")
	}
	if r.Stats().Answers != 3 {
		t.Errorf("answers after upgrade = %d, want 3 (one top-up)", r.Stats().Answers)
	}
}

func TestSeedLabelsNeverHitCrowd(t *testing.T) {
	r := NewRunner(&scripted{answers: []bool{false}}, 0.01)
	p := record.P(0, 0)
	r.SeedLabels([]record.Labeled{{Pair: p, Match: true}})
	if got := r.Label(p, PolicyStrong); !got {
		t.Error("seed label should win")
	}
	if r.Stats().Answers != 0 {
		t.Error("seed labels must not solicit answers")
	}
}

func TestCachedQuery(t *testing.T) {
	r := NewRunner(&scripted{answers: []bool{false, false}}, 0.01)
	p := record.P(0, 1)
	if _, ok := r.Cached(p, Policy21); ok {
		t.Error("uncached pair reported cached")
	}
	r.Label(p, Policy21)
	if lbl, ok := r.Cached(p, Policy21); !ok || lbl {
		t.Error("cached negative not returned")
	}
	// A negative 2+1 label satisfies hybrid but not strong.
	if _, ok := r.Cached(p, PolicyHybrid); !ok {
		t.Error("negative 2+1 should satisfy hybrid")
	}
	if _, ok := r.Cached(p, PolicyStrong); ok {
		t.Error("2+1 label must not satisfy strong")
	}
}

func TestAllLabeledSortedAndComplete(t *testing.T) {
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	r.SeedLabels([]record.Labeled{{Pair: record.P(5, 5), Match: false}})
	r.Label(record.P(1, 1), Policy21)
	r.Label(record.P(0, 0), Policy21)
	got := r.AllLabeled()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Pair.Less(got[i].Pair) {
			t.Error("AllLabeled not sorted")
		}
	}
}

func TestLabelTrainingBatchFreshHITs(t *testing.T) {
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	var pairs []record.Pair
	for b := 0; b < 20; b++ {
		pairs = append(pairs, record.P(0, b+2)) // all negative, uncached
	}
	got := r.LabelTrainingBatch(pairs, Policy21)
	if len(got) != 20 {
		t.Errorf("labeled %d, want 20 (two full HITs)", len(got))
	}
	if r.Stats().HITs != 2 {
		t.Errorf("HITs = %d, want 2", r.Stats().HITs)
	}
}

func TestLabelTrainingBatchSmallCache(t *testing.T) {
	// k <= 10 cached: one HIT of 10 fresh examples + the k cached returned.
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	var pairs []record.Pair
	for b := 0; b < 20; b++ {
		pairs = append(pairs, record.P(0, b+2))
	}
	for _, p := range pairs[:5] {
		r.Label(p, Policy21)
	}
	got := r.LabelTrainingBatch(pairs, Policy21)
	if len(got) != 15 {
		t.Errorf("returned %d, want 15 (5 cached + 10 fresh HIT)", len(got))
	}
}

func TestLabelTrainingBatchLargeCache(t *testing.T) {
	// k > 10 cached: return only the cached ones, ask nothing new.
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	var pairs []record.Pair
	for b := 0; b < 20; b++ {
		pairs = append(pairs, record.P(0, b+2))
	}
	for _, p := range pairs[:12] {
		r.Label(p, Policy21)
	}
	before := r.Stats().Answers
	got := r.LabelTrainingBatch(pairs, Policy21)
	if len(got) != 12 {
		t.Errorf("returned %d, want 12 cached", len(got))
	}
	if r.Stats().Answers != before {
		t.Error("large-cache batch must not solicit new answers")
	}
}

func TestRenderQuestion(t *testing.T) {
	schema := record.Schema{{Name: "name", Type: record.AttrString}}
	a := record.NewTable("a", schema)
	b := record.NewTable("b", schema)
	a.Append(record.Tuple{"kingston hyperx 4gb"})
	b.Append(record.Tuple{"kingston hyperx 12gb"})
	ds := &record.Dataset{Name: "t", A: a, B: b, Instruction: "match products"}
	q := RenderQuestion(ds, record.P(0, 0))
	for _, want := range []string{"match products", "kingston hyperx 4gb",
		"kingston hyperx 12gb", "Yes", "No", "Not sure", "name"} {
		if !strings.Contains(q, want) {
			t.Errorf("question missing %q:\n%s", want, q)
		}
	}
}

func TestRenderHITCapsQuestions(t *testing.T) {
	schema := record.Schema{{Name: "n", Type: record.AttrString}}
	a := record.NewTable("a", schema)
	b := record.NewTable("b", schema)
	for i := 0; i < 15; i++ {
		a.Append(record.Tuple{"x"})
		b.Append(record.Tuple{"y"})
	}
	ds := &record.Dataset{Name: "t", A: a, B: b}
	var pairs []record.Pair
	for i := 0; i < 15; i++ {
		pairs = append(pairs, record.P(i, i))
	}
	h := RenderHIT(ds, pairs)
	if strings.Contains(h, "Question 11") {
		t.Error("HIT should cap at 10 questions")
	}
	if !strings.Contains(h, "Question 10") {
		t.Error("HIT should include 10 questions")
	}
}

func TestResponseModelMonotonic(t *testing.T) {
	m := DefaultResponseModel()
	if m.WorkersPerHour(0) != 0 {
		t.Error("zero pay should draw no workers")
	}
	prev := 0.0
	for p := 1.0; p <= 10; p++ {
		rate := m.WorkersPerHour(p)
		if rate <= prev {
			t.Fatalf("arrival rate not increasing at %v cents", p)
		}
		prev = rate
	}
	// Diminishing returns: doubling pay less than doubles arrivals.
	if m.WorkersPerHour(2) >= 2*m.WorkersPerHour(1) {
		t.Error("elasticity >= 1")
	}
}

func TestCompletionHours(t *testing.T) {
	m := DefaultResponseModel()
	slow := m.CompletionHours(1000, 3, 1)
	fast := m.CompletionHours(1000, 3, 5)
	if fast >= slow {
		t.Errorf("paying more should be faster: %v vs %v", fast, slow)
	}
	if m.CompletionHours(0, 3, 1) != 0 {
		t.Error("no questions should take no time")
	}
	// More votes take longer.
	if m.CompletionHours(1000, 7, 2) <= m.CompletionHours(1000, 3, 2) {
		t.Error("more votes should take longer")
	}
}

func TestCheapestWithinDeadline(t *testing.T) {
	m := DefaultResponseModel()
	// Generous deadline: 1 cent suffices.
	p, ok := m.CheapestWithinDeadline(500, 3, 100, 1000)
	if !ok || p != 1 {
		t.Errorf("generous deadline price = %d, %v", p, ok)
	}
	// Tight deadline forces a higher price.
	p2, ok2 := m.CheapestWithinDeadline(5000, 3, 10000, 24)
	if !ok2 || p2 <= p {
		t.Errorf("tight deadline price = %d, %v", p2, ok2)
	}
	// Impossible: the deadline needs a price the budget cannot pay.
	if _, ok := m.CheapestWithinDeadline(5000, 3, 1, 24); ok {
		t.Error("impossible constraints satisfied")
	}
}

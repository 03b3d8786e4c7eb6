package retry

import (
	"errors"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

// recordJitter is a Jitter source that records the nominal waits it is
// asked for and shrinks them to nothing, so the table below reads the
// backoff schedule without sleeping through it.
type recordJitter struct{ asked []time.Duration }

func (r *recordJitter) jitter(d time.Duration) time.Duration {
	r.asked = append(r.asked, d)
	return 0
}

// TestDoSchedule is the attempts / cap / start-above-zero table: how many
// calls are made, with which attempt indexes, after which nominal waits.
func TestDoSchedule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name      string
		p         Policy
		from      int
		failFirst int // calls that fail before one succeeds
		wantCalls []int
		wantWaits []time.Duration
		wantErr   error
	}{
		{name: "zero policy is one attempt", p: Policy{}, failFirst: 9,
			wantCalls: []int{0}, wantErr: errFlaky},
		{name: "first try succeeds", p: Policy{Attempts: 5, Base: ms},
			wantCalls: []int{0}},
		{name: "succeeds on third", p: Policy{Attempts: 5, Base: ms}, failFirst: 2,
			wantCalls: []int{0, 1, 2}, wantWaits: []time.Duration{ms, 2 * ms}},
		{name: "exhausts attempts", p: Policy{Attempts: 4, Base: ms}, failFirst: 9,
			wantCalls: []int{0, 1, 2, 3}, wantWaits: []time.Duration{ms, 2 * ms, 4 * ms}, wantErr: errFlaky},
		{name: "cap holds", p: Policy{Attempts: 6, Base: ms, Max: 3 * ms}, failFirst: 9,
			wantCalls: []int{0, 1, 2, 3, 4, 5},
			wantWaits: []time.Duration{ms, 2 * ms, 3 * ms, 3 * ms, 3 * ms}, wantErr: errFlaky},
		{name: "start above zero counts the consumed attempt", p: Policy{Attempts: 4, Base: ms}, from: 2, failFirst: 9,
			wantCalls: []int{2, 3}, wantWaits: []time.Duration{2 * ms, 4 * ms}, wantErr: errFlaky},
		{name: "start at one waits the base first", p: Policy{Attempts: 3, Base: ms}, from: 1,
			wantCalls: []int{1}, wantWaits: []time.Duration{ms}},
		{name: "start at the bound tries nothing", p: Policy{Attempts: 2, Base: ms}, from: 2,
			wantErr: ErrExhausted},
		{name: "start above a zero policy tries nothing", p: Policy{}, from: 1,
			wantErr: ErrExhausted},
	} {
		var rj recordJitter
		var calls []int
		err := tc.p.Do(Call{From: tc.from, Jitter: rj.jitter}, func(attempt int) error {
			calls = append(calls, attempt)
			if len(calls) <= tc.failFirst {
				return errFlaky
			}
			return nil
		})
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if !equal(calls, tc.wantCalls) {
			t.Errorf("%s: attempts %v, want %v", tc.name, calls, tc.wantCalls)
		}
		if !equal(rj.asked, tc.wantWaits) {
			t.Errorf("%s: nominal waits %v, want %v", tc.name, rj.asked, tc.wantWaits)
		}
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDoBudget pins the wait budget: the wait that would push the summed
// (jittered) waits past Budget is not taken and the last error returns; a
// budget smaller than the wait owed before a start-above-zero attempt means
// nothing is tried.
func TestDoBudget(t *testing.T) {
	ms := time.Millisecond
	calls := 0
	p := Policy{Attempts: 10, Base: ms, Budget: 4 * ms} // waits 1+2 fit, +4 does not
	err := p.Do(Call{}, func(int) error { calls++; return errFlaky })
	if !errors.Is(err, errFlaky) || calls != 3 {
		t.Errorf("Do = %v after %d calls, want the last error after 3", err, calls)
	}

	calls = 0
	p = Policy{Attempts: 10, Base: 8 * ms, Budget: 4 * ms}
	err = p.Do(Call{From: 1}, func(int) error { calls++; return nil })
	if !errors.Is(err, ErrExhausted) || calls != 0 {
		t.Errorf("Do(From: 1) = %v after %d calls, want ErrExhausted after none", err, calls)
	}
}

// TestDoNonRetryable pins classification: an error Retryable rejects
// returns after one call, with no wait taken.
func TestDoNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	var rj recordJitter
	calls := 0
	p := Policy{Attempts: 5, Base: time.Hour}
	err := p.Do(Call{Jitter: rj.jitter, Retryable: func(err error) bool { return !errors.Is(err, fatal) }},
		func(int) error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 || len(rj.asked) != 0 {
		t.Errorf("Do = %v after %d calls and %d waits, want fatal after 1 and 0", err, calls, len(rj.asked))
	}
}

// TestDoCancelMidWait pins cancellation: closing Cancel while Do sits in an
// hour-long backoff returns at once, with ErrCanceled wrapping the attempt's
// error, and fn is not called again.
func TestDoCancelMidWait(t *testing.T) {
	cancel := make(chan struct{})
	waiting := make(chan struct{})
	calls := 0
	done := make(chan error, 1)
	go func() {
		p := Policy{Attempts: 3, Base: time.Hour}
		done <- p.Do(Call{Cancel: cancel}, func(int) error {
			calls++
			close(waiting) // a second call would panic on the double close
			return errFlaky
		})
	}()
	<-waiting
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, errFlaky) {
			t.Errorf("Do = %v, want ErrCanceled wrapping the last error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return when Cancel closed mid-wait")
	}
	if calls != 1 {
		t.Errorf("fn called %d times, want 1", calls)
	}

	// A cancel that lands in the wait owed before a start-above-zero
	// attempt has no earlier error to wrap.
	err := Policy{Attempts: 3, Base: time.Hour}.Do(Call{From: 1, Cancel: cancel},
		func(int) error { t.Error("fn ran after cancel"); return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("Do(From: 1) under a closed Cancel = %v, want ErrCanceled", err)
	}
}

func TestPolicyOr(t *testing.T) {
	d := Policy{Attempts: 3, Base: 50 * time.Millisecond, Max: time.Second}
	if got := (Policy{}).Or(d); got != d {
		t.Errorf("zero.Or(d) = %+v, want d", got)
	}
	set := Policy{Attempts: 8, Base: time.Millisecond, Max: 2 * time.Millisecond, Budget: time.Minute}
	if got := set.Or(d); got != set {
		t.Errorf("set.Or(d) = %+v, want it unchanged", got)
	}
	if got := (Policy{Attempts: 5}).Or(d); got != (Policy{Attempts: 5, Base: d.Base, Max: d.Max}) {
		t.Errorf("partial.Or(d) = %+v", got)
	}
}

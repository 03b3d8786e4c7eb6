// Package retry holds the repo's one capped-exponential-backoff loop.
// The three callers that re-attempt a failing operation — the crowd
// runner re-soliciting an answer, the marketplace client retrying an
// idempotent call, and the shard coordinator re-dispatching a task — share
// this loop and differ only in their bounds (Policy), in which failures
// they consider worth another attempt, and in whether waits are jittered
// or cancellable (Call). DESIGN.md §8.2 lists each caller's values.
//
// The loop touches the clock only to wait; it never decides an outcome, so
// results stay deterministic under any timing.
package retry

import (
	"errors"
	"fmt"
	"time"
)

// Policy bounds one retried operation. It is plain data so a job spec can
// carry it; the zero value means one attempt and no waiting.
type Policy struct {
	// Attempts is the maximum number of tries, the first included (<=0
	// means 1).
	Attempts int
	// Base is the wait before the second attempt; it doubles per retry.
	Base time.Duration
	// Max caps a single wait (0 = uncapped).
	Max time.Duration
	// Budget, when > 0, caps the summed waits of one Do call, so a failure
	// burst cannot stall a caller unboundedly.
	Budget time.Duration
}

// Or returns p with every unset (<=0) field taken from d — how a caller
// applies its own defaults to a partially filled policy.
func (p Policy) Or(d Policy) Policy {
	if p.Attempts <= 0 {
		p.Attempts = d.Attempts
	}
	if p.Base <= 0 {
		p.Base = d.Base
	}
	if p.Max <= 0 {
		p.Max = d.Max
	}
	if p.Budget <= 0 {
		p.Budget = d.Budget
	}
	return p
}

var (
	// ErrCanceled is returned (wrapping the last attempt's error) when
	// Call.Cancel closes during a wait.
	ErrCanceled = errors.New("retry: canceled while backing off")
	// ErrExhausted is returned when nothing was tried: Call.From already
	// meets the attempt bound, or the wait before it exceeds Budget.
	ErrExhausted = errors.New("retry: attempt budget already spent")
)

// Call is one Do invocation's wiring: everything about a retried operation
// that is not a bound.
type Call struct {
	// From is the index of the first attempt. Above 0 it means earlier
	// attempts were already consumed elsewhere (a torn shard batch was its
	// tasks' attempt 0): they count against Attempts, and the wait before
	// attempt From is the one that would have followed attempt From-1.
	From int
	// Cancel, when non-nil, abandons a wait as soon as it closes.
	Cancel <-chan struct{}
	// Retryable classifies a failed attempt; nil retries every error.
	Retryable func(error) bool
	// Jitter, when non-nil, maps each nominal wait to the one slept.
	Jitter func(time.Duration) time.Duration
}

// Do runs fn(attempt) for attempt = c.From, c.From+1, … until it returns
// nil, returns an error c.Retryable rejects, or the attempt or wait budget
// runs out; the last attempt's error is returned. Before every attempt
// after index 0 it waits Base·2^(attempt-1), capped at Max.
func (p Policy) Do(c Call, fn func(attempt int) error) error {
	attempts := p.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	if c.From >= attempts {
		return ErrExhausted
	}
	wait := p.Base
	for i := 1; i < c.From; i++ {
		wait = p.next(wait)
	}
	var spent time.Duration
	var err error
	for attempt := c.From; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := wait
			if c.Jitter != nil {
				d = c.Jitter(d)
			}
			if p.Budget > 0 && spent+d > p.Budget {
				if err == nil {
					return ErrExhausted
				}
				return err
			}
			if d > 0 {
				t := time.NewTimer(d)
				select {
				case <-c.Cancel:
					t.Stop()
					if err == nil {
						return ErrCanceled
					}
					return fmt.Errorf("%w: %w", ErrCanceled, err)
				case <-t.C:
				}
			}
			spent += d
			wait = p.next(wait)
		}
		err = fn(attempt)
		if err == nil || (c.Retryable != nil && !c.Retryable(err)) {
			return err
		}
	}
	return err
}

// next doubles a wait up to the cap.
func (p Policy) next(wait time.Duration) time.Duration {
	wait *= 2
	if p.Max > 0 && wait > p.Max {
		wait = p.Max
	}
	return wait
}

package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/retry"
)

// httpError is a non-2xx marketplace response. The status code classifies
// retryability: 5xx means the server or an intermediary failed and the
// same request may succeed later; 4xx means the request itself is wrong
// and retrying cannot help.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("platform: HTTP %d: %s", e.code, e.msg)
}

// HTTPStatus returns the response status code. Error types in other
// packages (the shard worker transport) expose the same method; retryable
// classifies all of them through the anonymous interface below instead of
// depending on concrete types.
func (e *httpError) HTTPStatus() int { return e.code }

// retryable reports whether err is worth retrying on an idempotent call:
// transport failures (connection drops, client timeouts, torn response
// bodies) and 5xx responses are; 4xx responses, empty-queue 204s, and an
// open circuit are not — the first two cannot improve, and the breaker's
// whole point is to fail fast without another wire attempt.
func retryable(err error) bool {
	if err == nil || errors.Is(err, errNoContent) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var he interface{ HTTPStatus() int }
	if errors.As(err, &he) {
		return he.HTTPStatus() >= 500
	}
	return true
}

// Retryable is the exported view of retryable, for higher layers (the
// shard coordinator) that run their own retry loops over this transport
// and must agree with it on which failures are worth another attempt.
func Retryable(err error) bool { return retryable(err) }

// RetryPolicy retries idempotent marketplace calls through the shared
// backoff loop (retry.Policy, DESIGN.md §8.2), adding what is the
// transport's own: seeded deterministic jitter and a cancel channel. Only
// calls that are idempotent — GETs, idempotency-keyed HIT creation,
// assignment-id-deduped submits — may pass through a policy; Claim never
// does (a retried claim could hand the same worker two assignments). Safe
// for concurrent use.
type RetryPolicy struct {
	// Policy holds the bounds: Attempts (first call included, <=0 means
	// 1), Base doubling to Max, and the per-Do backoff Budget.
	retry.Policy
	// Cancel, when non-nil, abandons backoff waits as soon as it closes.
	Cancel <-chan struct{}

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryPolicy returns the default policy — 4 attempts, 50ms base
// backoff doubling to a 2s cap, 5s total budget — with jitter seeded from
// seed so every retry trace is replayable.
func NewRetryPolicy(seed int64) *RetryPolicy {
	return &RetryPolicy{
		Policy: retry.Policy{
			Attempts: 4,
			Base:     50 * time.Millisecond,
			Max:      2 * time.Second,
			Budget:   5 * time.Second,
		},
		rng: rand.New(rand.NewSource(seed)),
	}
}

// jitter scales d by a deterministic factor in [0.5, 1.0]: enough spread
// to decorrelate concurrent retriers, bounded so backoff stays a backoff.
func (rp *RetryPolicy) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.rng == nil {
		rp.rng = rand.New(rand.NewSource(1))
	}
	return d/2 + time.Duration(rp.rng.Int63n(int64(d/2)+1))
}

// Do runs fn until it succeeds, fails terminally (non-retryable), or the
// attempt/budget bounds run out; the last error is returned (wrapped in
// retry.ErrCanceled when Cancel cut a backoff short).
func (rp *RetryPolicy) Do(fn func() error) error {
	return rp.Policy.Do(retry.Call{Cancel: rp.Cancel, Retryable: retryable, Jitter: rp.jitter},
		func(int) error { return fn() })
}

// ErrCircuitOpen is returned without a wire attempt while the breaker is
// open. Callers see the outage immediately instead of stacking timeouts.
var ErrCircuitOpen = errors.New("platform: circuit open")

// Breaker is a consecutive-failure circuit breaker. After Threshold
// consecutive retryable failures it opens: calls fail fast with
// ErrCircuitOpen until Cooldown elapses, then a single probe call is let
// through (half-open) and its outcome closes or re-opens the circuit.
// Successes and non-retryable errors (a 4xx proves the service is
// reachable) reset the failure count. Safe for concurrent use.
type Breaker struct {
	// Threshold is the consecutive-failure trip point (default 5).
	Threshold int
	// Cooldown is how long the circuit stays open before half-opening
	// (default 1s).
	Cooldown time.Duration

	mu        sync.Mutex
	failures  int
	openUntil time.Time
	probing   bool
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return time.Second
	}
	return b.Cooldown
}

// allow reports whether a call may proceed, returning ErrCircuitOpen when
// the circuit is open (or a half-open probe is already in flight).
func (b *Breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold() {
		return nil
	}
	if time.Now().Before(b.openUntil) || b.probing {
		return ErrCircuitOpen
	}
	b.probing = true
	return nil
}

// Allow is the exported view of allow, for callers outside this package
// (the shard worker client) that gate their own wire attempts on the
// breaker.
func (b *Breaker) Allow() error { return b.allow() }

// Record is the exported view of record.
func (b *Breaker) Record(err error) { b.record(err) }

// record feeds a call's outcome back into the breaker.
func (b *Breaker) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if !retryable(err) {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= b.threshold() {
		b.openUntil = time.Now().Add(b.cooldown())
	}
}

// Package faultkit is Corleone's seeded, deterministic fault-injection
// suite (DESIGN.md §8). Every file of it is a _test.go file, so no binary
// links it. It wraps the three channels a production run depends on with
// replayable fault schedules:
//
//   - Schedule: an HTTP middleware for the platform marketplace injecting
//     5xx bursts, connection drops (before and after the server processed
//     the request), and latency spikes.
//   - JournalSchedule: a runsvc.FaultFunc over the journal's one fault
//     seam, injecting torn appends, process kills at any durability
//     boundary (append, fsync, rename, prune) and CRC-detectable bit rot
//     in compaction snapshots.
//   - FlakyCrowd: a crowd.CrowdErr wrapper injecting per-ask failures and
//     outage windows without a marketplace in the loop.
//
// Every injected fault flows from a config seed through a private
// math/rand stream — never from global randomness or the wall clock — so
// any chaos failure reproduces exactly from its seed, and corlint's
// det-rand/det-time invariants hold. Schedules carry a Limit so chaos
// runs terminate: after the budget is spent the channel goes quiet and
// retries meet clean requests.
package faultkit

import (
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Kind classifies one injected transport fault.
type Kind int

const (
	// None lets the request through untouched.
	None Kind = iota
	// Err5xx answers 503 without reaching the wrapped handler.
	Err5xx
	// Drop severs the connection before the handler runs: the client sees
	// a transport error and the server saw nothing.
	Drop
	// DropAfter runs the handler to completion against a discarded
	// response, then severs the connection: the server processed the
	// request but the client never learns it — the window that makes
	// idempotency keys and submit dedupe necessary.
	DropAfter
	// Latency delays the request by Schedule.Latency, then serves it
	// normally — the straggler-side fault.
	Latency
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Err5xx:
		return "5xx"
	case Drop:
		return "drop"
	case DropAfter:
		return "drop-after"
	case Latency:
		return "latency"
	default:
		return "unknown"
	}
}

// Schedule is a seeded fault plan for an HTTP server. Fault decisions are
// drawn per request from a private seeded stream, so a schedule's behavior
// is a pure function of its configuration and the request sequence. Safe
// for concurrent use.
type Schedule struct {
	// Seed feeds the fault stream; equal seeds replay equal decisions.
	Seed int64
	// P5xx, PDrop, PDropAfter, and PLatency are per-request fault
	// probabilities, carved in that order out of one uniform draw (their
	// sum must stay <= 1).
	P5xx, PDrop, PDropAfter, PLatency float64
	// Burst widens each 5xx fault into a correlated outage: the next
	// Burst-1 requests also fail with 503, modeling a crashing backend
	// rather than isolated blips.
	Burst int
	// Latency is the injected delay for Latency faults.
	Latency time.Duration
	// Limit, when > 0, caps the total number of injected faults; the
	// schedule then goes quiet. Bounded schedules guarantee chaos runs
	// converge — retries eventually meet a fault-free channel.
	Limit int

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int
	injected  int
}

// Next draws the fault decision for one request.
func (s *Schedule) Next() Kind {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.Seed))
	}
	if s.Limit > 0 && s.injected >= s.Limit {
		return None
	}
	if s.burstLeft > 0 {
		s.burstLeft--
		s.injected++
		return Err5xx
	}
	u := s.rng.Float64()
	switch {
	case u < s.P5xx:
		if s.Burst > 1 {
			s.burstLeft = s.Burst - 1
		}
		s.injected++
		return Err5xx
	case u < s.P5xx+s.PDrop:
		s.injected++
		return Drop
	case u < s.P5xx+s.PDrop+s.PDropAfter:
		s.injected++
		return DropAfter
	case u < s.P5xx+s.PDrop+s.PDropAfter+s.PLatency:
		s.injected++
		return Latency
	}
	return None
}

// Injected reports how many faults have fired so far.
func (s *Schedule) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Handler wraps next with the schedule's transport faults. Connection
// drops use http.ErrAbortHandler, the sanctioned way to abort a response
// mid-flight; net/http recovers it without logging a panic.
func (s *Schedule) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch s.Next() {
		case Err5xx:
			http.Error(w, "faultkit: injected 503", http.StatusServiceUnavailable)
		case Drop:
			panic(http.ErrAbortHandler)
		case DropAfter:
			next.ServeHTTP(discardResponse{}, r)
			panic(http.ErrAbortHandler)
		case Latency:
			time.Sleep(s.Latency)
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// discardResponse swallows the handler's output for DropAfter faults: the
// server-side state change happens, the bytes never reach the client.
type discardResponse struct{}

func (discardResponse) Header() http.Header         { return http.Header{} }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

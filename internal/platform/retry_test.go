package platform

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
)

// fastRetry is a test policy with negligible backoff and seeded jitter.
func fastRetry(attempts int) *RetryPolicy {
	return &RetryPolicy{Policy: retry.Policy{Attempts: attempts, Base: time.Millisecond,
		Max: 4 * time.Millisecond}}
}

func TestRetryPolicyDo(t *testing.T) {
	rp := fastRetry(4)
	calls := 0
	err := rp.Do(func() error {
		calls++
		if calls < 3 {
			return &httpError{code: 503, msg: "burst"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("Do = %v after %d calls, want nil after 3", err, calls)
	}

	// Non-retryable errors fail immediately: a 400 cannot improve.
	calls = 0
	err = rp.Do(func() error {
		calls++
		return &httpError{code: 400, msg: "bad request"}
	})
	var he *httpError
	if !errors.As(err, &he) || he.code != 400 || calls != 1 {
		t.Errorf("Do(400) = %v after %d calls, want the 400 after 1", err, calls)
	}

	// An empty queue (204) is an outcome, not a failure.
	calls = 0
	if err := rp.Do(func() error { calls++; return errNoContent }); err != errNoContent || calls != 1 {
		t.Errorf("Do(204) = %v after %d calls, want errNoContent after 1", err, calls)
	}

	// Exhausted attempts return the last error.
	calls = 0
	err = rp.Do(func() error { calls++; return &httpError{code: 500, msg: "down"} })
	if !errors.As(err, &he) || he.code != 500 || calls != 4 {
		t.Errorf("Do(500s) = %v after %d calls, want the 500 after 4", err, calls)
	}
}

// TestRetryJitterSeeded pins the determinism contract: two policies with
// the same seed produce identical jitter traces, so any retry schedule is
// replayable from its seed.
func TestRetryJitterSeeded(t *testing.T) {
	a, b := NewRetryPolicy(42), NewRetryPolicy(42)
	for i := 0; i < 32; i++ {
		d := 100 * time.Millisecond
		da, db := a.jitter(d), b.jitter(d)
		if da != db {
			t.Fatalf("jitter diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < d/2 || da > d {
			t.Fatalf("jitter %v outside [%v, %v]", da, d/2, d)
		}
	}
}

func TestBreakerTripsAndHalfOpens(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = nil // isolate the breaker: one wire attempt per call
	c.Breaker = &Breaker{Threshold: 3, Cooldown: 40 * time.Millisecond}

	for i := 0; i < 3; i++ {
		if _, err := c.Status("HIT000001"); err == nil {
			t.Fatal("want error from a 500ing server")
		}
	}
	tripped := hits.Load()
	if tripped != 3 {
		t.Fatalf("server saw %d calls before trip, want 3", tripped)
	}
	// Open: fail fast, no wire attempt.
	if _, err := c.Status("HIT000001"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit returned %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != tripped {
		t.Fatal("open circuit still reached the server")
	}
	// Half-open after cooldown: exactly one probe goes through.
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Status("HIT000001"); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open circuit refused the probe")
	}
	if hits.Load() != tripped+1 {
		t.Fatalf("probe made %d wire calls, want 1", hits.Load()-tripped)
	}
}

func TestBreakerResetOnNonRetryable(t *testing.T) {
	b := &Breaker{Threshold: 2, Cooldown: time.Minute}
	b.record(&httpError{code: 500, msg: "x"})
	// A 404 proves the service is reachable; the streak resets.
	b.record(&httpError{code: 404, msg: "unknown HIT"})
	b.record(&httpError{code: 500, msg: "x"})
	if err := b.allow(); err != nil {
		t.Fatalf("breaker tripped across a non-retryable reset: %v", err)
	}
}

// TestCreateHITRetriesDeduped drops the response of the first create —
// after the server processed it — and asserts the retried call dedupes on
// the idempotency key: one HIT exists, and the caller got its id.
func TestCreateHITRetriesDeduped(t *testing.T) {
	server := NewServer()
	inner := server.Handler()
	var dropped atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/hits" && dropped.CompareAndSwap(false, true) {
			// Process the request, then sever the connection before the
			// response travels — the window where a non-keyed retry would
			// double-post.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry(3)
	id, err := c.CreateHIT(HIT{Questions: []Question{{ID: "0:1"}}, MaxAssignments: 1})
	if err != nil {
		t.Fatalf("CreateHIT through a dropped response: %v", err)
	}
	server.mu.Lock()
	n := len(server.hits)
	_, exists := server.hits[id]
	server.mu.Unlock()
	if n != 1 || !exists {
		t.Fatalf("server has %d HITs (returned id exists: %v), want exactly the 1 deduped HIT", n, exists)
	}
}

// TestSubmitDedupes pins the paid-once contract: a duplicate submit (a
// client retrying through a dropped response) is a no-op, not an error and
// not a second payment.
func TestSubmitDedupes(t *testing.T) {
	s := NewServer()
	id, err := s.CreateHIT(HIT{Questions: []Question{{ID: "0:1"}}, RewardCents: 3, MaxAssignments: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := s.ClaimNext("w0")
	if a == nil || a.HITID != id {
		t.Fatalf("ClaimNext = %+v", a)
	}
	if err := s.Submit(a.ID, []bool{true}); err != nil {
		t.Fatal(err)
	}
	paid := s.TotalPaidCents()
	if err := s.Submit(a.ID, []bool{true}); err != nil {
		t.Fatalf("duplicate submit errored: %v", err)
	}
	if got := s.TotalPaidCents(); got != paid {
		t.Fatalf("duplicate submit paid again: %d -> %d cents", paid, got)
	}
	if err := s.Submit("ASN999999", []bool{true}); err == nil {
		t.Fatal("unknown assignment submit must still error")
	}
}

// TestClaimNotRetried pins the one-wire-attempt contract for Claim: a
// retried claim could hand the same worker two assignments.
func TestClaimNotRetried(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = fastRetry(5)
	c.Breaker = nil
	if _, err := c.Claim("w0"); err == nil {
		t.Fatal("want error from a 503ing server")
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("Claim made %d wire attempts, want 1", n)
	}
}

// TestRemoteCrowdUnavailable pins the no-fabricated-label contract when
// the marketplace is unreachable: AnswerErr classifies the failure as
// crowd.ErrUnavailable, and nothing pretends to be a label.
func TestRemoteCrowdUnavailable(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.1))
	srv := httptest.NewServer(NewServer().Handler())
	srv.Close() // nothing listens: every dial fails
	c := NewClient(srv.URL)
	c.Retry = fastRetry(2)
	rc := &RemoteCrowd{Client: c, Dataset: ds, Poll: time.Millisecond, Timeout: 50 * time.Millisecond}
	_, err := rc.AnswerErr(record.P(0, 0))
	if !errors.Is(err, crowd.ErrUnavailable) {
		t.Fatalf("AnswerErr = %v, want crowd.ErrUnavailable", err)
	}
	if rc.Answer(record.P(0, 0)) {
		t.Fatal("compat shim fabricated a positive label from a transport failure")
	}
}

// TestRemoteCrowdTimeout pins the straggler-exhaustion contract: with no
// workers attached and reissue disabled, the deadline expires into
// crowd.ErrTimeout — never a fabricated answer.
func TestRemoteCrowdTimeout(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.1))
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	rc := &RemoteCrowd{
		Client:       NewClient(srv.URL),
		Dataset:      ds,
		Poll:         2 * time.Millisecond,
		Timeout:      40 * time.Millisecond,
		ReissueAfter: -1,
	}
	_, err := rc.AnswerErr(record.P(0, 0))
	if !errors.Is(err, crowd.ErrTimeout) {
		t.Fatalf("AnswerErr = %v, want crowd.ErrTimeout", err)
	}
}

// TestRemoteCrowdReissuesStraggler abandons the first HIT — a lazy worker
// claims it and never submits, permanently exhausting its one assignment
// slot — and asserts the reissue policy reposts the question so a live
// worker can still answer it.
func TestRemoteCrowdReissuesStraggler(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.1))
	server := NewServer()
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	match := ds.Truth.Matches()[0]
	var pool *WorkerPool
	var poolMu sync.Mutex
	go func() {
		// Grab the first HIT with a worker that never submits, then bring
		// up real workers; they can only reach the reissued HIT.
		for {
			if a := server.ClaimNext("lazy"); a != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		poolMu.Lock()
		pool = StartWorkers(NewClient(srv.URL), 2, &crowd.Oracle{Truth: ds.Truth}, time.Millisecond)
		poolMu.Unlock()
	}()
	defer func() {
		poolMu.Lock()
		defer poolMu.Unlock()
		if pool != nil {
			pool.Stop()
		}
	}()

	rc := &RemoteCrowd{
		Client:       NewClient(srv.URL),
		Dataset:      ds,
		Poll:         time.Millisecond,
		Timeout:      5 * time.Second,
		ReissueAfter: 25 * time.Millisecond,
	}
	ans, err := rc.AnswerErr(match)
	if err != nil {
		t.Fatalf("AnswerErr through an abandoned HIT: %v", err)
	}
	if !ans {
		t.Error("oracle-backed reissue answered a true match with no")
	}
	server.mu.Lock()
	n := len(server.hits)
	server.mu.Unlock()
	if n < 2 {
		t.Errorf("server has %d HITs, want >= 2 (original + reissue)", n)
	}
}

// TestRemoteCrowdReissueBounded pins the repost bound: with nobody
// answering, at most 1 + MaxReissues HITs are ever posted per question.
func TestRemoteCrowdReissueBounded(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.1))
	server := NewServer()
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	rc := &RemoteCrowd{
		Client:       NewClient(srv.URL),
		Dataset:      ds,
		Poll:         time.Millisecond,
		Timeout:      120 * time.Millisecond,
		ReissueAfter: 5 * time.Millisecond,
		MaxReissues:  2,
	}
	_, err := rc.AnswerErr(record.P(0, 0))
	if !errors.Is(err, crowd.ErrTimeout) {
		t.Fatalf("AnswerErr = %v, want crowd.ErrTimeout", err)
	}
	server.mu.Lock()
	n := len(server.hits)
	server.mu.Unlock()
	if n > 3 {
		t.Errorf("posted %d HITs, want <= 1 original + 2 reissues", n)
	}
}

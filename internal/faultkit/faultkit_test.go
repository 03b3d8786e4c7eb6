package faultkit

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/runsvc"
)

// expectCrash runs fn and fails the test unless fn panics — the shape of
// every injected kill-point (runsvc recovers the same panic into
// StateCrashed in production).
func expectCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected an injected crash, fn returned normally")
		}
	}()
	fn()
}

func TestScheduleDeterministicAcrossInstances(t *testing.T) {
	mk := func(seed int64) *Schedule {
		return &Schedule{Seed: seed, P5xx: 0.1, PDrop: 0.1, PDropAfter: 0.1, PLatency: 0.1, Burst: 3}
	}
	a, b := mk(42), mk(42)
	for i := 0; i < 500; i++ {
		if ka, kb := a.Next(), b.Next(); ka != kb {
			t.Fatalf("draw %d: seed-42 schedules diverged: %v != %v", i, ka, kb)
		}
	}
	c, d := mk(42), mk(43)
	differs := false
	for i := 0; i < 500; i++ {
		if c.Next() != d.Next() {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical 500-draw fault sequences")
	}
}

func TestScheduleLimit(t *testing.T) {
	s := &Schedule{Seed: 1, P5xx: 1, Limit: 5}
	faults := 0
	for i := 0; i < 100; i++ {
		if s.Next() != None {
			faults++
		}
	}
	if faults != 5 {
		t.Errorf("injected %d faults, want exactly Limit=5", faults)
	}
	if got := s.Injected(); got != 5 {
		t.Errorf("Injected() = %d, want 5", got)
	}
}

func TestScheduleBurst(t *testing.T) {
	s := &Schedule{Seed: 5, P5xx: 0.2, Burst: 4}
	kinds := make([]Kind, 200)
	for i := range kinds {
		kinds[i] = s.Next()
	}
	bursts := 0
	for i, k := range kinds {
		if k != Err5xx || (i > 0 && kinds[i-1] == Err5xx) {
			continue // not the start of a burst
		}
		bursts++
		for j := i + 1; j < i+4 && j < len(kinds); j++ {
			if kinds[j] != Err5xx {
				t.Fatalf("burst starting at draw %d broke at draw %d (%v)", i, j, kinds[j])
			}
		}
	}
	if bursts == 0 {
		t.Fatal("no 5xx burst observed in 200 draws at P5xx=0.2")
	}
}

// countingBackend is the wrapped handler for Handler tests: it records
// whether the server actually processed each request, which is what
// separates Drop (server saw nothing) from DropAfter (server committed,
// client never learned).
func countingBackend() (http.Handler, *atomic.Int64) {
	var hits atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}), &hits
}

func TestHandler5xx(t *testing.T) {
	backend, hits := countingBackend()
	s := &Schedule{Seed: 1, P5xx: 1, Limit: 1}
	srv := httptest.NewServer(s.Handler(backend))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("faulted request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("faulted status = %d, want 503", resp.StatusCode)
	}
	if hits.Load() != 0 {
		t.Errorf("5xx fault reached the backend (%d hits)", hits.Load())
	}
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("post-limit request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hits.Load() != 1 {
		t.Errorf("post-limit: status %d, backend hits %d; want 200, 1", resp.StatusCode, hits.Load())
	}
}

func TestHandlerDrop(t *testing.T) {
	backend, hits := countingBackend()
	s := &Schedule{Seed: 1, PDrop: 1, Limit: 1}
	srv := httptest.NewServer(s.Handler(backend))
	defer srv.Close()

	if _, err := srv.Client().Get(srv.URL); err == nil {
		t.Error("dropped request returned no transport error")
	}
	if hits.Load() != 0 {
		t.Errorf("Drop fault reached the backend (%d hits)", hits.Load())
	}
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("post-limit request: %v", err)
	}
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Errorf("backend hits after recovery = %d, want 1", hits.Load())
	}
}

func TestHandlerDropAfter(t *testing.T) {
	backend, hits := countingBackend()
	s := &Schedule{Seed: 1, PDropAfter: 1, Limit: 1}
	srv := httptest.NewServer(s.Handler(backend))
	defer srv.Close()

	// The client must see a failure even though the server processed the
	// request — the lost-ack window that forces idempotent retries.
	if _, err := srv.Client().Get(srv.URL); err == nil {
		t.Error("drop-after request returned no transport error")
	}
	if hits.Load() != 1 {
		t.Errorf("backend hits = %d, want 1 (server must have processed the dropped request)", hits.Load())
	}
}

func TestHandlerLatency(t *testing.T) {
	backend, hits := countingBackend()
	s := &Schedule{Seed: 1, PLatency: 1, Latency: 5 * time.Millisecond, Limit: 1}
	srv := httptest.NewServer(s.Handler(backend))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("latency-faulted request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hits.Load() != 1 {
		t.Errorf("latency fault: status %d, hits %d; want 200, 1 (delay, not failure)", resp.StatusCode, hits.Load())
	}
	if s.Injected() != 1 {
		t.Errorf("Injected() = %d, want 1", s.Injected())
	}
}

func TestJournalScheduleTear(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	dir := t.TempDir()

	store, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	js := &JournalSchedule{Seed: 1, PTear: 1, Limit: 1}
	store.Faults = js.FaultFunc()
	jl, err := store.Open("job-tear")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	if !r.Label(pair, crowd.Policy21) {
		t.Fatal("oracle label for the true pair should be true")
	}
	expectCrash(t, func() { _ = jl.FlushLabels(r) })
	if js.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", js.Injected())
	}

	// Fresh process: a clean store must repair the torn tail on open and
	// replay nothing — the torn label never became durable.
	store2, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore (reopen): %v", err)
	}
	jl2, err := store2.Open("job-tear")
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	defer jl2.Close()
	scratch := crowd.NewRunner(nil, 0.01)
	got, err := jl2.Replay(scratch)
	if err != nil {
		t.Fatalf("replay after tear: %v", err)
	}
	if got.Labels != 0 {
		t.Errorf("replayed %d labels from a torn journal, want 0", got.Labels)
	}
}

func TestJournalScheduleKillAfterWrite(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	dir := t.TempDir()

	store, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	js := &JournalSchedule{Seed: 1, PKill: 1, Limit: 1}
	store.Faults = js.FaultFunc()
	jl, err := store.Open("job-kill")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	r.Label(pair, crowd.Policy21)
	expectCrash(t, func() { _ = jl.FlushLabels(r) })

	// The kill fired after the full append: a resumed process must recover
	// the paid answers and serve them instead of asking again.
	store2, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore (reopen): %v", err)
	}
	jl2, err := store2.Open("job-kill")
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer jl2.Close()
	counter := &countingCrowdErr{inner: &FlakyCrowd{Inner: &crowd.Oracle{Truth: truth}}}
	resumed := crowd.NewRunner(counter, 0.01)
	got, err := jl2.Replay(resumed)
	if err != nil {
		t.Fatalf("replay after kill: %v", err)
	}
	if got.Labels == 0 {
		t.Fatal("kill-after-write lost the durable label")
	}
	// Re-asking the pair makes no crowd call and charges its two answers
	// at the runner's price, exactly what the killed process had paid.
	if !resumed.Label(pair, crowd.Policy21) || len(counter.counts) != 0 || resumed.Stats() != r.Stats() {
		t.Errorf("re-asking the durable pair: %d pairs asked, accounting %+v; the killed run paid %+v",
			len(counter.counts), resumed.Stats(), r.Stats())
	}
}

func TestJournalScheduleFileFilter(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})

	store, err := runsvc.NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	js := &JournalSchedule{Seed: 1, PKill: 1, Only: SnapshotOps, Limit: 1}
	store.Faults = js.FaultFunc()
	jl, err := store.Open("job-filter")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer jl.Close()
	r := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	r.Label(pair, crowd.Policy21)
	// A log append and its fsync are outside the compaction lifecycle the
	// schedule is restricted to: no crash, no fault.
	if err := jl.FlushLabels(r); err != nil {
		t.Fatalf("FlushLabels: %v", err)
	}
	if js.Injected() != 0 {
		t.Errorf("Injected() = %d, want 0 (log operations are filtered out)", js.Injected())
	}
	// The first checkpoint compacts (the log has outgrown the absent
	// snapshot), and the first compaction boundary — the snapshot tmp's
	// append — is inside the filter.
	expectCrash(t, func() { _, _ = jl.Checkpoint(r, engine.Checkpoint{}) })
	if js.Injected() != 1 {
		t.Errorf("Injected() = %d after a compaction, want 1", js.Injected())
	}
}

// TestJournalScheduleFlip: a flipped snapshot body is written whole, and
// the next replay rejects the generation instead of restoring from it.
func TestJournalScheduleFlip(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})

	store, err := runsvc.NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	js := &JournalSchedule{Seed: 1, PFlip: 1, Limit: 1}
	store.Faults = js.FaultFunc()
	jl, err := store.Open("job-flip")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer jl.Close()
	r := crowd.NewRunner(&crowd.Oracle{Truth: truth}, 0.01)
	r.Label(pair, crowd.Policy21)
	info, err := jl.Checkpoint(r, engine.Checkpoint{})
	if err != nil || info.Gen != 1 {
		t.Fatalf("Checkpoint = %+v, %v; want generation 1 written without error", info, err)
	}
	if js.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1 (the snapshot body)", js.Injected())
	}
	if _, err := jl.Replay(crowd.NewRunner(nil, 0.01)); err == nil {
		t.Error("replay restored from the only, bit-flipped generation")
	}
	if store.SnapshotFallbacks() != 1 {
		t.Errorf("SnapshotFallbacks() = %d, want 1", store.SnapshotFallbacks())
	}
}

func errorsIsUnavailable(err error) bool { return errors.Is(err, crowd.ErrUnavailable) }

func TestFlakyCrowd(t *testing.T) {
	pair := record.Pair{A: 0, B: 1}
	truth := record.NewGroundTruth([]record.Pair{pair})
	f := &FlakyCrowd{Inner: &crowd.Oracle{Truth: truth}, FailFirst: 2}

	for i := 0; i < 2; i++ {
		if _, err := f.AnswerErr(pair); !errorsIsUnavailable(err) {
			t.Fatalf("ask %d: err = %v, want crowd.ErrUnavailable", i+1, err)
		}
	}
	a, err := f.AnswerErr(pair)
	if err != nil || !a {
		t.Fatalf("ask 3: (%v, %v), want (true, nil)", a, err)
	}
	if f.Asks() != 3 || f.Fails() != 2 {
		t.Errorf("asks/fails = %d/%d, want 3/2", f.Asks(), f.Fails())
	}

	f.SetDown(true)
	if _, err := f.AnswerErr(pair); !errorsIsUnavailable(err) {
		t.Errorf("down: err = %v, want crowd.ErrUnavailable", err)
	}
	// The error-blind Answer path degrades to false — never to a guess of
	// the true label.
	if f.Answer(pair) {
		t.Error("down: Answer returned true for a failed ask")
	}
	f.SetDown(false)
	if !f.Answer(pair) {
		t.Error("up: Answer should return the oracle answer")
	}
}

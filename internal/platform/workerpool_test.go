package platform

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
)

// TestWorkerPoolStopJoinsAll pins the shutdown contract under -race: Stop
// returns only after every worker goroutine has exited (no leak), a worker
// mid-Claim when Stop fires neither panics nor hangs the join, and nothing
// is paid twice for one assignment.
func TestWorkerPoolStopJoinsAll(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.1))
	server := NewServer()
	inner := server.Handler()
	var submits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/assignments":
			// Slow claims guarantee workers are mid-Claim when Stop fires.
			time.Sleep(10 * time.Millisecond)
		case r.Method == http.MethodPost && len(r.URL.Path) > len("/assignments/") &&
			r.URL.Path[:len("/assignments/")] == "/assignments/":
			submits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	before := runtime.NumGoroutine()
	pool := StartWorkers(c, 6, &crowd.Oracle{Truth: ds.Truth}, time.Millisecond)

	// Give the workers real work so some are submitting while others are
	// blocked in Claim.
	m := ds.Truth.Matches()[0]
	if _, err := c.CreateHIT(HIT{
		Questions:      []Question{{ID: EncodeQuestionID(m)}},
		RewardCents:    2,
		MaxAssignments: 2,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond) // land Stop mid-Claim

	stopped := make(chan struct{})
	go func() { pool.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not join the workers")
	}

	// Every worker goroutine must be gone. Idle HTTP transport goroutines
	// unwind asynchronously, so poll with a deadline after releasing them.
	c.HTTP.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutines after Stop: %d, baseline %d — worker leak", got, before)
	}

	// No double payment: at most MaxAssignments submissions were paid, no
	// matter how the shutdown raced the in-flight claims and retries.
	if paid := server.TotalPaidCents(); paid > 2*2 {
		t.Errorf("paid %d cents, want <= 4 (2 assignments x 2 cents)", paid)
	}
}

// TestWorkerPoolStopWaits checks that Stop waits for a worker that is
// still inside a claim: the claim handler blocks until released, and Stop
// must not return before that.
func TestWorkerPoolStopWaits(t *testing.T) {
	claimed := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case claimed <- struct{}{}:
		default:
		}
		<-release
		w.WriteHeader(http.StatusNoContent) // no work available
	}))
	defer srv.Close()
	defer free() // before srv.Close, which waits for the blocked handler

	pool := StartWorkers(NewClient(srv.URL), 1, &crowd.Oracle{}, time.Millisecond)
	<-claimed
	stopped := make(chan struct{})
	go func() { pool.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a worker was still in a claim")
	case <-time.After(100 * time.Millisecond):
	}
	free()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return after the claim was released")
	}
}

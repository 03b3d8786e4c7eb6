package par

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedEmitsAscendingExactlyOnce drives the fan-out with random claim
// sizes and a scrambled completion order (run it under -race): emission
// must be 0, 1, 2, … with each index's own value, exactly once, and at no
// point may more than window indexes be claimed beyond the frontier.
func TestOrderedEmitsAscendingExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, window, workers, maxClaim int }{
		{n: 1, window: 1, workers: 1, maxClaim: 1},
		{n: 200, window: 1, workers: 4, maxClaim: 3},
		{n: 500, window: 7, workers: 8, maxClaim: 1},
		{n: 500, window: 16, workers: 5, maxClaim: 40}, // claims larger than the window
		{n: 333, window: 64, workers: 3, maxClaim: 9},
	} {
		var emitted atomic.Int64 // == the frontier, readable outside the lock
		var got []int
		o := NewOrdered(tc.n, tc.window, func(i, v int) {
			if v != i*3 {
				t.Errorf("index %d delivered value %d, want %d", i, v, i*3)
			}
			got = append(got, i)
			emitted.Add(1)
		})
		var wg sync.WaitGroup
		for w := 0; w < tc.workers; w++ {
			wg.Add(1)
			go func(seed int64, window, maxClaim int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					lo, n, ok := o.Claim(1 + rng.Intn(maxClaim))
					if !ok {
						return
					}
					// The frontier only grows, so reading it after the
					// claim can only under-state the distance at claim
					// time: the check never fails a correct window.
					if d := int64(lo+n) - emitted.Load(); d > int64(window) {
						t.Errorf("window %d: [%d,%d) claimed %d beyond the frontier", window, lo, lo+n, d)
					}
					// Complete the run in a random order, yielding so other
					// workers interleave.
					for _, j := range rng.Perm(n) {
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
						o.Complete(lo+j, (lo+j)*3)
					}
				}
			}(int64(w+1), tc.window, tc.maxClaim)
		}
		wg.Wait()
		if err := o.Err(); err != nil {
			t.Fatalf("%+v: unexpected error %v", tc, err)
		}
		if len(got) != tc.n {
			t.Fatalf("%+v: emitted %d of %d", tc, len(got), tc.n)
		}
		for i, v := range got {
			if i != v {
				t.Fatalf("%+v: emission %d was index %d", tc, i, v)
			}
		}
	}
}

// TestOrderedWindowBlocksClaims parks the frontier index and checks claims
// stop at exactly window indexes ahead, then resume one for one.
func TestOrderedWindowBlocksClaims(t *testing.T) {
	const n, window = 20, 4
	o := NewOrdered(n, window, func(int, struct{}) {})
	claimed := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			lo, cnt, ok := o.Claim(1)
			if !ok {
				return
			}
			if cnt != 1 {
				t.Errorf("Claim(1) returned a run of %d", cnt)
			}
			claimed <- lo
		}
	}()
	drain := func() (got []int) {
		for {
			select {
			case i := <-claimed:
				got = append(got, i)
			case <-time.After(100 * time.Millisecond):
				return got
			}
		}
	}
	if got := drain(); len(got) != window {
		t.Fatalf("%d claims with the frontier parked, want exactly window=%d", len(got), window)
	}
	o.Complete(2, struct{}{}) // not the frontier: frees nothing
	if got := drain(); len(got) != 0 {
		t.Fatalf("completing a non-frontier index admitted %d claims", len(got))
	}
	o.Complete(0, struct{}{})
	if got := drain(); len(got) != 1 {
		t.Fatalf("frontier advanced by 1 but %d claims were admitted", len(got))
	}
	o.Complete(1, struct{}{}) // frontier jumps over the finished 2 to 3
	if got := drain(); len(got) != 2 {
		t.Fatalf("frontier advanced by 2 but %d claims were admitted", len(got))
	}
	for i := 3; i < n; i++ {
		o.Complete(i, struct{}{})
	}
	wg.Wait()
}

// TestOrderedFail pins failure: Fail wakes claimers blocked on the window,
// later claims are refused, emission stays at the last contiguous prefix
// even when later results arrive, and the first error wins.
func TestOrderedFail(t *testing.T) {
	const n, window = 10, 3
	var got []int
	o := NewOrdered(n, window, func(i int, _ string) { got = append(got, i) })
	for i := 0; i < window; i++ {
		if _, _, ok := o.Claim(1); !ok {
			t.Fatal("claim inside the window refused")
		}
	}
	blocked := make(chan bool)
	go func() {
		_, _, ok := o.Claim(1) // a full window ahead: blocks
		blocked <- ok
	}()
	select {
	case <-blocked:
		t.Fatal("claim beyond the window did not block")
	case <-time.After(50 * time.Millisecond):
	}
	o.Complete(0, "a")
	// Index 1 is still out, so 2 stays buffered.
	o.Complete(2, "c")
	if ok := <-blocked; !ok {
		t.Fatal("advancing the frontier did not admit the blocked claim")
	}

	go func() {
		_, _, ok := o.Claim(1) // blocks again: 1 is still out
		blocked <- ok
	}()
	select {
	case <-blocked:
		t.Fatal("claim beyond the window did not block")
	case <-time.After(50 * time.Millisecond):
	}
	boom := errors.New("boom")
	o.Fail(boom)
	if ok := <-blocked; ok {
		t.Fatal("Fail woke the blocked claimer with a claim instead of a refusal")
	}
	o.Fail(errors.New("later"))
	o.Complete(1, "b") // would have released 1 and 2
	if _, _, ok := o.Claim(1); ok {
		t.Fatal("claim admitted after Fail")
	}
	if !errors.Is(o.Err(), boom) {
		t.Fatalf("Err() = %v, want the first failure", o.Err())
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("emitted %v, want exactly the prefix [0]", got)
	}
}

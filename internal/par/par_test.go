package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000} {
		hits := make([]int, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForNonPositive(t *testing.T) {
	called := false
	For(0, func(lo, hi int) { called = true })
	For(-5, func(lo, hi int) { called = true })
	if called {
		t.Error("fn must not run for n <= 0")
	}
}

func TestForSingleCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var order []int
	For(10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
	})
	// With one worker the whole range arrives as a single in-order chunk.
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{-1, 0, 1, 2, 3, 7, 100} {
				hits := make([]atomic.Int32, max(n, 0))
				Each(n, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("GOMAXPROCS %d, n=%d: index %d visited %d times", procs, n, i, h)
					}
				}
			}
		}()
	}
}

// TestEachClaimsDynamically holds Each to its point: with two workers, a
// long task at index 0 must not hold up the short ones behind it, which the
// other worker claims and finishes while it runs.
func TestEachClaimsDynamically(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	release := make(chan struct{})
	var done atomic.Int32
	Each(4, func(i int) {
		if i == 0 {
			<-release
			return
		}
		if done.Add(1) == 3 {
			close(release)
		}
	})
}

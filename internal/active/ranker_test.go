package active

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/corleone-em/corleone/internal/forest"
)

// rankerFixture builds a trained forest and an eligibility mask over a
// synthetic pool, the inputs selectBatch consumes every iteration.
func rankerFixture(n int) (f *forest.Forest, X [][]float64, consumed, inMonitor []bool) {
	rng := rand.New(rand.NewSource(11))
	X = make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = X[i][0] > 0.5
	}
	f = forest.Train(X[:200], y[:200], forest.Defaults())
	consumed = make([]bool, n)
	inMonitor = make([]bool, n)
	for i := 0; i < n; i += 37 {
		consumed[i] = true
	}
	return f, X, consumed, inMonitor
}

// partialSortByEntropy is the selection sort topP replaced, kept as its
// oracle: it moves the k highest-ranked candidates to the front, best
// first, in O(k·n).
func partialSortByEntropy(cs []cand, k int) {
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(cs); j++ {
			if cs[j].entropy > cs[best].entropy ||
				(cs[j].entropy == cs[best].entropy && cs[j].idx < cs[best].idx) {
				best = j
			}
		}
		cs[i], cs[best] = cs[best], cs[i]
	}
}

// TestTopPMatchesSelectionSort compares the bounded heap with the
// selection sort on pools full of entropy ties (a forest of T trees yields
// at most T+1 distinct entropies), for p below, at and above the pool size,
// p = 0, and pools of 0 and 1; the rows between pool indices are ineligible.
func TestTopPMatchesSelectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var buf []cand
	for trial := 0; trial < 400; trial++ {
		n := []int{0, 1, 2, 7, 100, 101, 1000}[rng.Intn(7)]
		p := []int{0, 1, 5, 100, 2000}[rng.Intn(5)]
		levels := 1 + rng.Intn(6) // few distinct entropies: ties everywhere
		ents := make([]float64, 3*n)
		for i := range ents {
			ents[i] = -1
		}
		all := make([]cand, n)
		for j := range all {
			idx := 3*j + rng.Intn(3) // ascending, with gaps
			ents[idx] = float64(rng.Intn(levels)) / float64(levels)
			all[j] = cand{idx: idx, entropy: ents[idx]}
		}
		k := p
		if k > n {
			k = n
		}
		partialSortByEntropy(all, k)
		buf = topP(ents, p, buf)
		if len(buf) != k {
			t.Fatalf("n=%d p=%d: %d candidates, want %d", n, p, len(buf), k)
		}
		for i := range buf {
			if buf[i] != all[i] {
				t.Fatalf("n=%d p=%d: rank %d is %+v, selection sort has %+v", n, p, i, buf[i], all[i])
			}
		}
	}
}

// TestRankerZeroAllocSteadyState pins the per-iteration ranking cost: once
// the ranker's buffers have grown to the pool, selecting a batch — pool
// collection, batched entropy scoring, partial sort, weighted sampling —
// allocates nothing, for both selection strategies. par.For only hands out
// goroutines above GOMAXPROCS 1, so the assertion runs on the inline path.
func TestRankerZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	f, X, consumed, inMonitor := rankerFixture(2000)
	rng := rand.New(rand.NewSource(3))
	cfg := Defaults()

	var r ranker
	r.selectBatch(rng, f, X, consumed, inMonitor, cfg) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() {
		r.selectBatch(rng, f, X, consumed, inMonitor, cfg)
	}); allocs != 0 {
		t.Errorf("entropy selectBatch steady state allocates %.1f per op, want 0", allocs)
	}

	rcfg := cfg
	rcfg.Strategy = StrategyRandom
	r.selectBatch(rng, f, X, consumed, inMonitor, rcfg)
	if allocs := testing.AllocsPerRun(100, func() {
		r.selectBatch(rng, f, X, consumed, inMonitor, rcfg)
	}); allocs != 0 {
		t.Errorf("random selectBatch steady state allocates %.1f per op, want 0", allocs)
	}
}

// TestRankerMatchesPointwiseScoring pins the ranking input at GOMAXPROCS 1
// and 4: the entropies the ranker feeds the partial sort are bit-identical
// to scoring each eligible candidate through the single-vector path, every
// consumed or monitor row is marked ineligible, and the batch holds none.
func TestRankerMatchesPointwiseScoring(t *testing.T) {
	f, X, consumed, inMonitor := rankerFixture(700)
	for i := 5; i < len(X); i += 41 {
		inMonitor[i] = true
	}
	cfg := Defaults()
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		var r ranker
		batch := r.selectBatch(rand.New(rand.NewSource(5)), f, X, consumed, inMonitor, cfg)
		runtime.GOMAXPROCS(old)
		if len(r.ents) != len(X) || len(batch) != BatchQ {
			t.Fatalf("procs=%d: %d entropies for %d rows, batch of %d", procs, len(r.ents), len(X), len(batch))
		}
		for i := range X {
			want := f.Entropy(X[i])
			if consumed[i] || inMonitor[i] {
				want = -1
			}
			if r.ents[i] != want {
				t.Fatalf("procs=%d: entropy[%d] = %v, want %v", procs, i, r.ents[i], want)
			}
		}
		for _, i := range batch {
			if consumed[i] || inMonitor[i] {
				t.Fatalf("procs=%d: batch contains ineligible index %d", procs, i)
			}
		}
	}
}

// BenchmarkSelectBatch measures one iteration of §5.2 example selection —
// the ranking hot path Learn runs after every retrain — over a
// 5000-candidate pool and over one the size of Restaurants×1.0's candidate
// set. Zero-alloc in steady state at GOMAXPROCS=1.
func BenchmarkSelectBatch(b *testing.B) {
	for _, n := range []int{5000, 176423} {
		b.Run(fmt.Sprintf("pool=%d", n), func(b *testing.B) {
			f, X, consumed, inMonitor := rankerFixture(n)
			rng := rand.New(rand.NewSource(3))
			cfg := Defaults()
			var r ranker
			var batch []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch = r.selectBatch(rng, f, X, consumed, inMonitor, cfg)
			}
			_ = batch
		})
	}
}

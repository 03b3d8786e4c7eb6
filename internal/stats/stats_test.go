package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestZBits pins z to the double the deleted Acklam approximation returned
// at 0.975: every margin and sample size, hence every pinned output, rests
// on these bits.
func TestZBits(t *testing.T) {
	if got := math.Float64bits(z); got != 0x3fff5c03325b95a6 {
		t.Errorf("z = %v (bits %#x), want bits 0x3fff5c03325b95a6", z, got)
	}
}

func TestProportionMargin(t *testing.T) {
	// Infinite population: ε = z*sqrt(pq/n).
	got := ProportionMargin(0.5, 100, 0)
	want := 1.959964 * math.Sqrt(0.25/100)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("margin = %v, want %v", got, want)
	}
	// Exhausted population: margin 0.
	if m := ProportionMargin(0.5, 50, 50); m != 0 {
		t.Errorf("exhausted-population margin = %v, want 0", m)
	}
	// FPC shrinks the margin.
	if ProportionMargin(0.5, 100, 200) >= got {
		t.Error("finite-population margin should be smaller")
	}
	// No sample: infinite margin.
	if !math.IsInf(ProportionMargin(0.5, 0, 100), 1) {
		t.Error("n=0 margin should be +Inf")
	}
}

func TestSampleSizeForMargin(t *testing.T) {
	// The paper's example (§6.1): R = 0.8, ε = 0.025 needs n >= 984.
	n := SampleSizeForMargin(0.8, 0.025, 0)
	if n < 980 || n > 990 {
		t.Errorf("sample size = %d, want ~984", n)
	}
	// Verify the round trip: the returned n actually achieves the margin.
	if m := ProportionMargin(0.8, n, 0); m > 0.025+1e-9 {
		t.Errorf("margin at n=%d is %v > 0.025", n, m)
	}
	// Finite population never needs more than the population.
	if got := SampleSizeForMargin(0.5, 0.001, 100); got > 100 {
		t.Errorf("finite sample size %d exceeds population", got)
	}
	// Degenerate proportion needs one example.
	if got := SampleSizeForMargin(0, 0.05, 0); got != 1 {
		t.Errorf("p=0 sample size = %d, want 1", got)
	}
}

func TestSampleSizeRoundTripProperty(t *testing.T) {
	f := func(pRaw, eRaw float64, popRaw int16) bool {
		p := math.Mod(math.Abs(pRaw), 1)
		eps := 0.01 + math.Mod(math.Abs(eRaw), 0.2)
		pop := int(popRaw)
		if pop < 0 {
			pop = -pop
		}
		n := SampleSizeForMargin(p, eps, pop)
		if pop > 1 && n >= pop {
			return true // exhausting the population always works
		}
		return ProportionMargin(p, n, pop) <= eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInterval(t *testing.T) {
	iv := Interval{Point: 0.9, Margin: 0.2}
	if iv.Lo() != 0.7 {
		t.Errorf("Lo = %v", iv.Lo())
	}
	if iv.Hi() != 1 { // clamped
		t.Errorf("Hi = %v", iv.Hi())
	}
	if !iv.Contains(0.75) || iv.Contains(0.5) {
		t.Error("Contains wrong")
	}
}

func TestEstimateProportion(t *testing.T) {
	iv := EstimateProportion(3, 10, 100)
	if iv.Point != 0.3 {
		t.Errorf("Point = %v", iv.Point)
	}
	if iv.Margin <= 0 {
		t.Errorf("Margin = %v", iv.Margin)
	}
	if !math.IsInf(EstimateProportion(0, 0, 100).Margin, 1) {
		t.Error("empty sample should have infinite margin")
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := SampleIndices(rng, 10, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 10 || seen[i] {
			t.Fatalf("invalid or duplicate index %d in %v", i, got)
		}
		seen[i] = true
	}
	if got := SampleIndices(rng, 3, 10); len(got) != 3 {
		t.Errorf("oversized k should clamp: len = %d", len(got))
	}
	if SampleIndices(rng, 0, 5) != nil {
		t.Error("n=0 should give nil")
	}
}

// TestSamplerMatchesDense is the sparse shuffle's differential test
// against the dense one, SampleIndicesInto: every (n, k) up to 70, k > n
// included, and random large n with k both far below n and up to n. One
// Sampler serves every draw, so its reused table is tested too; each draw
// must give the same indices in the same order, SampleIndices must give
// them again, and each rng must be left at the same state.
func TestSamplerMatchesDense(t *testing.T) {
	var s Sampler
	check := func(seed int64, n, k int) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		want := SampleIndicesInto(rng, n, k, make([]int, n))
		next := rng.Int63()
		for _, draw := range []func(*rand.Rand) []int{
			func(rng *rand.Rand) []int { return s.Draw(rng, n, k) },
			func(rng *rand.Rand) []int { return SampleIndices(rng, n, k) },
		} {
			rng := rand.New(rand.NewSource(seed))
			if got := draw(rng); !slices.Equal(got, want) || rng.Int63() != next {
				t.Fatalf("n=%d k=%d: %v, want %v (or the rng is left elsewhere)", n, k, got, want)
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for k := 0; k <= 70; k++ {
			check(int64(n*71+k), n, k)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(1<<20)
		k := rng.Intn(300)
		if trial%2 == 1 {
			n = 1 + rng.Intn(5000)
			k = rng.Intn(n + 2)
		}
		check(int64(trial), n, k)
	}
}

func TestSampleIndicesUniform(t *testing.T) {
	// Each index should appear in a size-1 sample from 4 about 1/4 of the time.
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[SampleIndices(rng, 4, 1)[0]]++
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.02 {
			t.Errorf("index %d frequency %v, want ~0.25", i, got)
		}
	}
}

func TestWeightedSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws WeightedSampler
	w := []float64{1, 1, 1000, 1}
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		got := ws.Sample(rng, w, 1)
		if len(got) != 1 {
			t.Fatal("wrong sample size")
		}
		if got[0] == 2 {
			hits++
		}
	}
	if float64(hits)/trials < 0.95 {
		t.Errorf("heavy item sampled only %d/%d times", hits, trials)
	}
	// Distinctness and clamping.
	got := ws.Sample(rng, w, 10)
	if len(got) != 4 {
		t.Errorf("clamped sample size = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatal("duplicate index")
		}
		seen[i] = true
	}
	// Zero weights are tolerated.
	if got := ws.Sample(rng, []float64{0, 0}, 2); len(got) != 2 {
		t.Errorf("zero-weight sample = %v", got)
	}
}

func TestSmoothWindow(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	got := SmoothWindow(xs, 3)
	want := []float64{0.5, 1, 2, 3, 3.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("smoothed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// w=1 (and even w is rounded up to odd) leaves the series unchanged.
	got1 := SmoothWindow(xs, 1)
	for i := range xs {
		if got1[i] != xs[i] {
			t.Errorf("w=1 changed the series at %d", i)
		}
	}
	if len(SmoothWindow(nil, 5)) != 0 {
		t.Error("empty input should stay empty")
	}
}

func TestSmoothWindowPreservesConstant(t *testing.T) {
	f := func(v float64, nRaw uint8) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e300 {
			return true // intermediate sums would overflow
		}
		n := int(nRaw%20) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		for _, s := range SmoothWindow(xs, 5) {
			if math.Abs(s-v) > 1e-9*math.Max(1, math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMax(t *testing.T) {
	if Max([]float64{1, 5, 3}) != 5 {
		t.Error("Max wrong")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestF1(t *testing.T) {
	if F1(0, 0) != 0 {
		t.Error("F1(0,0) should be 0")
	}
	if got := F1(1, 1); got != 1 {
		t.Errorf("F1(1,1) = %v", got)
	}
	if got := F1(0.5, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("F1(0.5,1) = %v", got)
	}
}

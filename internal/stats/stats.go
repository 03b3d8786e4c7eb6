// Package stats implements the sampling statistics Corleone leans on:
// proportion confidence intervals at the paper's δ with finite-population
// correction (the error-margin formulas of §4.2 and Eqs. 2–3 in §6.1), the
// sample-size solver behind the Estimator's cost model, and deterministic
// sampling utilities (uniform and weighted, without replacement).
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// z is Z_{1-(1-δ)/2}, the two-sided normal quantile at the confidence
// level δ = 0.95 the paper fixes for every rule-precision and accuracy
// interval (§4.2; Eqs. 2–3 of §6.1). It is the double Acklam's rational
// approximation gives at 0.975 (bits 0x3fff5c03325b95a6), not the true
// quantile 1.959963984540054: the pinned run outputs were recorded with it.
// It is typed, so z*z rounds as a float64 product does.
const z float64 = 1.959963986120195

// ProportionMargin returns the error margin ε of §4.2 for an estimated
// proportion p from a sample of size n drawn without replacement from a
// population of size population:
//
//	ε = z * sqrt( p(1-p)/n * (N-n)/(N-1) )
//
// The second factor is the finite-population correction; it vanishes when
// the sample exhausts the population (n = N) and approaches 1 when N ≫ n.
// A population of 0 or negative means "effectively infinite" (no
// correction). n <= 0 yields +Inf (no information).
func ProportionMargin(p float64, n, population int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	v := p * (1 - p) / float64(n)
	if population > 1 {
		if n >= population {
			return 0
		}
		v *= float64(population-n) / float64(population-1)
	}
	return z * math.Sqrt(v)
}

// SampleSizeForMargin returns the smallest sample size n such that a
// proportion estimated at p from a population of the given size has
// ProportionMargin <= eps. It inverts the margin formula:
//
//	n >= N*z²pq / (eps²(N-1) + z²pq)    (finite N)
//	n >= z²pq / eps²                    (infinite N)
//
// A conservative caller that does not know p should pass p = 0.5, which
// maximizes p(1-p). Returns at least 1, and never more than the population
// when the population is finite.
func SampleSizeForMargin(p, eps float64, population int) int {
	if eps <= 0 {
		if population > 0 {
			return population
		}
		return math.MaxInt32
	}
	pq := p * (1 - p)
	if pq == 0 {
		return 1
	}
	var n float64
	if population > 1 {
		N := float64(population)
		n = N * z * z * pq / (eps*eps*(N-1) + z*z*pq)
		if n > N {
			n = N
		}
	} else {
		n = z * z * pq / (eps * eps)
	}
	out := int(math.Ceil(n))
	if out < 1 {
		out = 1
	}
	if population > 0 && out > population {
		out = population
	}
	return out
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Point  float64
	Margin float64
}

// Lo returns the lower bound, clamped to 0 for proportions.
func (iv Interval) Lo() float64 { return math.Max(0, iv.Point-iv.Margin) }

// Hi returns the upper bound, clamped to 1 for proportions.
func (iv Interval) Hi() float64 { return math.Min(1, iv.Point+iv.Margin) }

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Point-iv.Margin && x <= iv.Point+iv.Margin
}

// EstimateProportion builds the §4.2 interval for k successes out of n
// sampled from a finite population.
func EstimateProportion(k, n, population int) Interval {
	if n == 0 {
		return Interval{Point: 0, Margin: math.Inf(1)}
	}
	p := float64(k) / float64(n)
	return Interval{Point: p, Margin: ProportionMargin(p, n, population)}
}

// SampleIndices returns k distinct indices drawn uniformly from [0, n) using
// a partial Fisher-Yates shuffle. If k >= n it returns all indices 0..n-1 in
// shuffled order. The result order is random; callers needing determinism
// beyond the seed should sort.
func SampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	return SampleIndicesInto(rng, n, k, make([]int, n))
}

// SampleIndicesInto is SampleIndices with a caller-provided buffer of
// capacity >= n, for hot paths (forest training draws a bootstrap per tree)
// that would otherwise allocate a fresh n-slot buffer each call. The RNG
// draw sequence and the result are identical to SampleIndices; the returned
// slice aliases buf.
func SampleIndicesInto(rng *rand.Rand, n, k int, buf []int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	idx := buf[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

type weightedKey struct {
	key float64
	idx int
}

// weightedKeys sorts descending by key. Keys are continuous random draws,
// so ties have probability zero and the sorted order — hence the sample —
// is the same whatever sort runs underneath. The pointer receiver keeps
// the sort.Sort interface conversion allocation-free.
type weightedKeys []weightedKey

func (s *weightedKeys) Len() int           { return len(*s) }
func (s *weightedKeys) Less(i, j int) bool { return (*s)[i].key > (*s)[j].key }
func (s *weightedKeys) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }

// WeightedSampler is a reusable workspace for weighted sampling without
// replacement: the key and output buffers grow once and are retained, so
// steady-state sampling — active learning draws a batch from the ranked
// pool every iteration — allocates nothing. The zero value is ready to use;
// results alias the sampler's buffers and are valid until the next Sample
// call.
type WeightedSampler struct {
	keys weightedKeys
	out  []int
}

// Sample draws k distinct indices from [0, len(weights)) with probability
// proportional to the weights, using the Efraimidis-Spirakis exponential-key
// method, into the sampler's buffers. Non-positive weights are treated as a
// tiny epsilon so zero-entropy examples can still be drawn when the pool is
// smaller than k (§5.2 needs q examples even if fewer than q have positive
// entropy).
func (ws *WeightedSampler) Sample(rng *rand.Rand, weights []float64, k int) []int {
	n := len(weights)
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if cap(ws.keys) < n {
		ws.keys = make(weightedKeys, n)
	}
	ws.keys = ws.keys[:n]
	for i, w := range weights {
		if w <= 0 {
			w = 1e-12
		}
		// key = U^(1/w); larger keys win. Use log for numeric stability:
		// log key = log(U)/w.
		ws.keys[i] = weightedKey{key: math.Log(rng.Float64()) / w, idx: i}
	}
	// Sorting ws.keys through its own field keeps the sort.Interface
	// conversion from forcing a per-call escape of a local header.
	sort.Sort(&ws.keys)
	keys := ws.keys
	if cap(ws.out) < k {
		ws.out = make([]int, k)
	}
	out := ws.out[:k]
	for i := 0; i < k; i++ {
		out[i] = keys[i].idx
	}
	return out
}

// SmoothWindow applies the centered moving average of §5.3 with window w
// (odd) to xs and returns the smoothed series. Near the ends the window is
// truncated to the available values, matching the paper's "replace each
// value with the average of the w values around it" on a finite series.
func SmoothWindow(xs []float64, w int) []float64 {
	if w < 1 {
		w = 1
	}
	if w%2 == 0 {
		w++
	}
	half := w / 2
	out := make([]float64, len(xs))
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Max returns the maximum of xs (-Inf for an empty slice).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// F1 computes the harmonic mean of precision and recall (0 if both are 0).
func F1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

package tree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// xorData is a dataset a depth-2 tree can fit exactly: label = x0>0.5 XOR'd
// nothing — actually label = (x0>0.5 && x1>0.5).
func andData() (X [][]float64, y []bool) {
	for _, a := range []float64{0, 1} {
		for _, b := range []float64{0, 1} {
			for i := 0; i < 5; i++ {
				X = append(X, []float64{a, b})
				y = append(y, a > 0.5 && b > 0.5)
			}
		}
	}
	return
}

func TestGrowFitsSeparableData(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, Config{})
	for i := range X {
		if got := tr.Predict(X[i]); got != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestGrowPureLeaf(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []bool{false, false, false}
	tr := Grow(X, y, nil, Config{})
	if !tr.Root.IsLeaf() {
		t.Error("all-negative data should give a single leaf")
	}
	if tr.Root.Label {
		t.Error("leaf label should be negative")
	}
	if tr.NumLeaves() != 1 || tr.Depth() != 0 {
		t.Errorf("leaves=%d depth=%d", tr.NumLeaves(), tr.Depth())
	}
}

func TestGrowMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []bool
	for i := 0; i < 200; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0]+v[1]+v[2] > 1.5)
	}
	tr := Grow(X, y, nil, Config{MaxDepth: 2})
	if d := tr.Depth(); d > 2 {
		t.Errorf("depth = %d, want <= 2", d)
	}
}

func TestGrowMinLeaf(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, Config{MinLeaf: 100})
	if !tr.Root.IsLeaf() {
		t.Error("MinLeaf larger than data should force a single leaf")
	}
}

func TestGrowWithIndices(t *testing.T) {
	X, y := andData()
	// Train on the negatives only.
	var idx []int
	for i, lbl := range y {
		if !lbl {
			idx = append(idx, i)
		}
	}
	tr := Grow(X, y, idx, Config{})
	if !tr.Root.IsLeaf() || tr.Root.Label {
		t.Error("training on all-negative subset should give a negative leaf")
	}
}

func TestGrowDoesNotMutateIdx(t *testing.T) {
	X, y := andData()
	idx := []int{0, 5, 10, 15}
	orig := append([]int(nil), idx...)
	Grow(X, y, idx, Config{})
	for i := range idx {
		if idx[i] != orig[i] {
			t.Fatal("Grow mutated the caller's index slice")
		}
	}
}

func TestCountsRecorded(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, Config{})
	if tr.Root.Pos != 5 || tr.Root.Neg != 15 {
		t.Errorf("root counts = %d+/%d-, want 5+/15-", tr.Root.Pos, tr.Root.Neg)
	}
}

func TestTreeString(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, Config{})
	s := tr.String(func(i int) string { return []string{"f0", "f1"}[i] })
	if !strings.Contains(s, "<=") || !strings.Contains(s, "->") {
		t.Errorf("String() = %q missing expected structure", s)
	}
}

func TestRandomFeatureSubsetStillSplits(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, Config{FeaturesPerSplit: 1, Rand: rand.New(rand.NewSource(7))})
	// With both features needed and only one visible per node, the tree
	// may be imperfect but must be a valid tree.
	if tr.Root == nil {
		t.Fatal("nil root")
	}
}

func TestGiniOf(t *testing.T) {
	if giniOf(0, 0) != 0 {
		t.Error("empty gini should be 0")
	}
	if giniOf(5, 0) != 0 || giniOf(0, 5) != 0 {
		t.Error("pure gini should be 0")
	}
	if g := giniOf(5, 5); g != 0.5 {
		t.Errorf("balanced gini = %v, want 0.5", g)
	}
}

func TestPredictionConsistencyProperty(t *testing.T) {
	// Predict agrees, for random vectors on a random tree, with the
	// conclusion of the one rule that covers the vector through
	// MatchesFunc, the feature-accessor form the blocking verifier applies.
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []bool
	for i := 0; i < 300; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0] > 0.3 && v[2] < 0.7)
	}
	tr := Grow(X, y, nil, Config{})
	rules := tr.Rules()
	f := func(a, b, c, d float64) bool {
		v := []float64{clamp01(a), clamp01(b), clamp01(c), clamp01(d)}
		covering := 0
		for _, r := range rules {
			if r.MatchesFunc(func(i int) float64 { return v[i] }) {
				covering++
				if r.Positive != tr.Predict(v) {
					return false
				}
			}
		}
		return covering == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if x != x || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

package forest

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/tree"
)

// andData is a dataset a depth-2 tree fits exactly: label = x0 > 0.5 &&
// x1 > 0.5, five copies of each corner of the unit square.
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

// trainOne grows the shipping grower's tree over every row of X: one tree,
// and a bag of the whole training set.
func trainOne(X [][]float64, y []bool, cfg Config) *Forest {
	cfg.NumTrees, cfg.BagFraction = 1, 1
	return Train(X, y, cfg)
}

// rulesOf returns tree t's root-to-leaf rules and the leaf each was read at.
func rulesOf(f *Forest, t int) (rules []tree.Rule, leaves []int32) {
	f.treeRules(t, func(r tree.Rule, leaf int32) {
		rules, leaves = append(rules, r), append(leaves, leaf)
	})
	return rules, leaves
}

// sumData is 200 random vectors of three features, labeled by their sum.
func sumData() (X [][]float64, y []bool) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0]+v[1]+v[2] > 1.5)
	}
	return
}

func TestGrowFitsSeparableData(t *testing.T) {
	X, y := andData()
	f := trainOne(X, y, Config{})
	for i := range X {
		if got := f.Predict(X[i]); got != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestGrowPureLeaf(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []bool{false, false, false}
	f := trainOne(X, y, Config{})
	if f.NumNodes() != 1 || f.feature[0] >= 0 {
		t.Fatalf("all-negative data should give a single leaf, got %d nodes", f.NumNodes())
	}
	if f.label[0] {
		t.Error("leaf label should be negative")
	}
}

func TestGrowMaxDepth(t *testing.T) {
	X, y := sumData()
	rules, _ := rulesOf(trainOne(X, y, Config{MaxDepth: 2}), 0)
	depth := 0
	for _, r := range rules {
		depth = max(depth, len(r.Preds))
	}
	if depth != 2 {
		t.Errorf("depth = %d, want 2: bounded, and reached", depth)
	}
}

func TestGrowMinLeaf(t *testing.T) {
	X, y := andData()
	if f := trainOne(X, y, Config{MinLeaf: 100}); f.NumNodes() != 1 {
		t.Errorf("MinLeaf larger than the data should force a single leaf, got %d nodes", f.NumNodes())
	}
	X, y = sumData()
	f := trainOne(X, y, Config{MinLeaf: 5})
	for n, feat := range f.feature {
		if feat < 0 && f.pos[n]+f.neg[n] < 5 {
			t.Errorf("leaf %d holds %d+/%d- examples, want at least 5", n, f.pos[n], f.neg[n])
		}
	}
}

func TestCountsRecorded(t *testing.T) {
	X, y := andData()
	f := trainOne(X, y, Config{})
	if root := f.roots[0]; f.pos[root] != 5 || f.neg[root] != 15 {
		t.Errorf("root counts = %d+/%d-, want 5+/15-", f.pos[root], f.neg[root])
	}
}

func TestRandomFeatureSubsetStillSplits(t *testing.T) {
	// With both features needed and only one visible per node, the tree may
	// be imperfect, but either feature alone improves on the root.
	X, y := andData()
	f := trainOne(X, y, Config{FeaturesPerSplit: 1, Seed: 7})
	if f.feature[f.roots[0]] < 0 {
		t.Fatal("root did not split")
	}
	rules, _ := rulesOf(f, 0)
	pos, neg := 0, 0
	for _, r := range rules {
		pos, neg = pos+r.LeafPos, neg+r.LeafNeg
	}
	if pos != 5 || neg != 15 {
		t.Errorf("leaf counts sum to %d+/%d-, want 5+/15-", pos, neg)
	}
}

// TestTreeString renders one grown tree: its splits name their features and
// the leaf of the AND corner holds all five matches.
func TestTreeString(t *testing.T) {
	X, y := andData()
	f := trainOne(X, y, Config{})
	s := f.String(func(i int) string { return []string{"f0", "f1"}[i] })
	if !strings.Contains(s, "[f0 <= ") || !strings.Contains(s, "[f1 <= ") || !strings.Contains(s, "-> Yes (5+/0-)") {
		t.Errorf("String() = %q missing expected structure", s)
	}
}

func TestGiniImpurity(t *testing.T) {
	if giniImpurity(0, 0) != 0 {
		t.Error("empty gini should be 0")
	}
	if giniImpurity(5, 0) != 0 || giniImpurity(0, 5) != 0 {
		t.Error("pure gini should be 0")
	}
	if g := giniImpurity(5, 5); g != 0.5 {
		t.Errorf("balanced gini = %v, want 0.5", g)
	}
}

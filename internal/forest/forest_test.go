package forest

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/corleone-em/corleone/internal/tree"
)

// makeData builds a separable dataset: positive iff x0 > 0.6.
func makeData(n int, seed int64) (X [][]float64, y []bool) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0] > 0.6)
	}
	return
}

func TestTrainAndPredict(t *testing.T) {
	X, y := makeData(400, 1)
	f := Train(X, y, Defaults())
	errs := 0
	for i := range X {
		if f.Predict(X[i]) != y[i] {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(X)); frac > 0.05 {
		t.Errorf("training error %.2f, want <= 0.05", frac)
	}
}

func TestTrainDeterministic(t *testing.T) {
	X, y := makeData(200, 2)
	cfg := Defaults()
	cfg.Seed = 42
	f1 := Train(X, y, cfg)
	f2 := Train(X, y, cfg)
	for i := 0; i < 50; i++ {
		v := []float64{rand.New(rand.NewSource(int64(i))).Float64(), 0.5, 0.5}
		if f1.PosFraction(v) != f2.PosFraction(v) {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestTrainSeedMatters(t *testing.T) {
	X, y := makeData(200, 2)
	a := Defaults()
	a.Seed = 1
	b := Defaults()
	b.Seed = 2
	fa, fb := Train(X, y, a), Train(X, y, b)
	diff := false
	for i := 0; i < 200 && !diff; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if fa.PosFraction(v) != fb.PosFraction(v) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical forests (suspicious)")
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("empty", func() { Train(nil, nil, Defaults()) })
	assertPanics("mismatched", func() {
		Train([][]float64{{1}}, []bool{true, false}, Defaults())
	})
}

func TestNumTreesConfig(t *testing.T) {
	X, y := makeData(100, 3)
	cfg := Defaults()
	cfg.NumTrees = 7
	f := Train(X, y, cfg)
	if f.NumTrees() != 7 {
		t.Errorf("trees = %d, want 7", f.NumTrees())
	}
}

func TestEntropyOf(t *testing.T) {
	if EntropyOf(0) != 0 || EntropyOf(1) != 0 {
		t.Error("pure votes should have zero entropy")
	}
	if got := EntropyOf(0.5); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("EntropyOf(0.5) = %v, want ln 2", got)
	}
	f := func(x float64) bool {
		p := math.Mod(math.Abs(x), 1)
		h := EntropyOf(p)
		return h >= 0 && h <= math.Ln2+1e-12 && math.Abs(h-EntropyOf(1-p)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfidenceComplement(t *testing.T) {
	X, y := makeData(300, 4)
	f := Train(X, y, Defaults())
	confs := NewScorer().ConfidencesInto(f, X[:20], make([]float64, 20))
	for i, c := range confs {
		if math.Abs((1-f.Entropy(X[i]))-c) > 1e-12 {
			t.Fatal("confidence != 1 - Entropy")
		}
	}
}

func TestMeanConfidence(t *testing.T) {
	X, y := makeData(300, 5)
	f := Train(X, y, Defaults())
	sc := NewScorer()
	mc := sc.MeanConfidence(f, X[:50])
	if mc < 1-math.Ln2 || mc > 1 {
		t.Errorf("MeanConfidence = %v outside valid range", mc)
	}
	if sc.MeanConfidence(f, nil) != 1 {
		t.Error("empty monitoring set should give confidence 1")
	}
}

func TestPredictMajorityTieIsNegative(t *testing.T) {
	// With an even forest forced to disagree, PosFraction 0.5 -> negative.
	// Construct directly: Predict uses > 0.5.
	if (0.5 > 0.5) != false {
		t.Fatal("sanity")
	}
	X, y := makeData(100, 6)
	f := Train(X, y, Defaults())
	// Just assert Predict is consistent with PosFraction.
	for i := 0; i < 30; i++ {
		v := X[i]
		if f.Predict(v) != (f.PosFraction(v) > 0.5) {
			t.Fatal("Predict inconsistent with PosFraction")
		}
	}
}

func TestRulesExtraction(t *testing.T) {
	X, y := makeData(300, 7)
	f := Train(X, y, Defaults())
	neg, pos := f.Rules()
	if len(neg) == 0 || len(pos) == 0 {
		t.Fatalf("rules: %d negative, %d positive; want both nonzero", len(neg), len(pos))
	}
	for _, r := range neg {
		if r.Positive {
			t.Error("negative rule list contains a positive rule")
		}
		if len(r.Preds) == 0 {
			t.Error("empty rule extracted")
		}
	}
	for _, r := range pos {
		if !r.Positive {
			t.Error("positive rule list contains a negative rule")
		}
	}
	// No duplicates by key.
	seen := map[string]bool{}
	for _, r := range append(append([]tree.Rule{}, neg...), pos...) {
		k := r.Key()
		if seen[k] {
			t.Errorf("duplicate rule %s", k)
		}
		seen[k] = true
	}
}

// leafSplitCounts counts the leaves and the splits in tree tr's span of the
// packed layout.
func leafSplitCounts(f *Forest, tr int) (leaves, splits int) {
	end := int32(f.NumNodes())
	if tr+1 < len(f.roots) {
		end = f.roots[tr+1]
	}
	for _, feat := range f.feature[f.roots[tr]:end] {
		if feat < 0 {
			leaves++
		} else {
			splits++
		}
	}
	return leaves, splits
}

// TestNumLeaves: every packed tree is a full binary tree with at least one
// leaf, so the forest holds at least one leaf per tree.
func TestNumLeaves(t *testing.T) {
	X, y := makeData(300, 8)
	f := Train(X, y, Defaults())
	total := 0
	for tr := range f.roots {
		leaves, splits := leafSplitCounts(f, tr)
		if leaves != splits+1 {
			t.Errorf("tree %d: %d leaves for %d splits", tr, leaves, splits)
		}
		total += leaves
	}
	if total < f.NumTrees() {
		t.Errorf("%d leaves < tree count %d", total, f.NumTrees())
	}
}

// TestRulesLeafCounts pins treeRules to one rule per leaf, carrying the
// leaf's training counts, so each tree's rules split its bag between them.
func TestRulesLeafCounts(t *testing.T) {
	X, y := makeData(300, 8)
	f := Train(X, y, Defaults())
	for tr, root := range f.roots {
		leaves, _ := leafSplitCounts(f, tr)
		rules, _ := rulesOf(f, tr)
		if len(rules) != leaves {
			t.Errorf("tree %d: %d rules for %d leaves", tr, len(rules), leaves)
		}
		pos, neg := 0, 0
		for _, r := range rules {
			pos, neg = pos+r.LeafPos, neg+r.LeafNeg
		}
		if pos != int(f.pos[root]) || neg != int(f.neg[root]) {
			t.Errorf("tree %d: leaf counts sum to %d+/%d-, root holds %d+/%d-", tr, pos, neg, f.pos[root], f.neg[root])
		}
	}
}

// TestRulesPartitionInputSpace: the rules of a tree are its root-to-leaf
// paths, so every vector is covered by exactly one of them — the one read
// at the leaf LeavesInto reports — and the covering rules' conclusions are
// the forest's votes.
func TestRulesPartitionInputSpace(t *testing.T) {
	X, y := makeData(300, 5)
	f := Train(X, y, Defaults())
	rng := rand.New(rand.NewSource(5))
	V := make([][]float64, 200)
	for i := range V {
		V[i] = []float64{rng.Float64() * 1.5, rng.Float64() * 1.5, rng.Float64() * 1.5}
	}
	k := f.NumTrees()
	reached := make([]int32, len(V)*k)
	f.LeavesInto(V, reached)
	votes := make([]int, len(V))
	for tr := 0; tr < k; tr++ {
		rules, leaves := rulesOf(f, tr)
		for i, v := range V {
			covered := 0
			for j, r := range rules {
				if !r.Matches(v) {
					continue
				}
				covered++
				if leaves[j] != reached[i*k+tr] {
					t.Fatalf("tree %d: %v is covered by the rule of leaf %d but reaches leaf %d", tr, v, leaves[j], reached[i*k+tr])
				}
				if r.Positive {
					votes[i]++
				}
			}
			if covered != 1 {
				t.Fatalf("tree %d: %v covered by %d rules, want 1", tr, v, covered)
			}
		}
	}
	for i, v := range V {
		if votes[i] != f.posCount(v) {
			t.Fatalf("%v: %d positive covering rules, %d positive votes", v, votes[i], f.posCount(v))
		}
	}
}

// TestPredictionConsistencyProperty: for random vectors on a one-tree
// forest, Predict agrees with the conclusion of the one rule that covers
// the vector through MatchesFunc, the feature-accessor form the blocking
// verifier applies.
func TestPredictionConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []bool
	for i := 0; i < 300; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0] > 0.3 && v[2] < 0.7)
	}
	f := trainOne(X, y, Config{})
	rules, _ := rulesOf(f, 0)
	prop := func(a, b, c, d float64) bool {
		v := []float64{clamp01(a), clamp01(b), clamp01(c), clamp01(d)}
		covering := 0
		for _, r := range rules {
			if r.MatchesFunc(func(i int) float64 { return v[i] }) {
				covering++
				if r.Positive != f.Predict(v) {
					return false
				}
			}
		}
		return covering == 1
	}
	if err := quick.Check(prop, nil); err != nil {
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

func TestForestString(t *testing.T) {
	X, y := makeData(50, 9)
	f := Train(X, y, Defaults())
	s := f.String(func(i int) string { return "f" })
	if !strings.Contains(s, "Tree 1:\n[f <= ") || !strings.Contains(s, "-> ") {
		t.Errorf("String() = %q missing expected structure", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := makeData(300, 31)
	f := Train(X, y, Defaults())
	names := []string{"f0", "f1", "f2"}
	var buf bytes.Buffer
	if err := f.Save(&buf, names); err != nil {
		t.Fatal(err)
	}
	g, err := Load(bytes.NewReader(buf.Bytes()), names)
	if err != nil {
		t.Fatal(err)
	}
	// Every node array, span and table survives, and so does the training
	// configuration: a saved forest is a complete round trip of the trained
	// state.
	if !reflect.DeepEqual(g, f) {
		t.Error("Save → Load changed the forest")
	}
}

func TestLoadRejectsFeatureMismatch(t *testing.T) {
	X, y := makeData(100, 32)
	f := Train(X, y, Defaults())
	var buf bytes.Buffer
	if err := f.Save(&buf, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), []string{"a", "b"}); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), []string{"a", "b", "X"}); err == nil {
		t.Error("name mismatch accepted")
	}
	// nil names skips verification.
	if _, err := Load(bytes.NewReader(buf.Bytes()), nil); err != nil {
		t.Errorf("nil names rejected: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("nope"), nil); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"trees":[{"nodes":[]}]}`), nil); err == nil {
		t.Error("empty tree accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"trees":[{"nodes":[{"f":0,"l":0,"r":0}]}]}`), nil); err == nil {
		t.Error("self-referential node accepted")
	}
	leaf := `{"f":-1,"l":-1,"r":-1}`
	if _, err := Load(strings.NewReader(
		`{"trees":[{"nodes":[{"f":0,"l":1,"r":1},`+leaf+`]}]}`), nil); err == nil {
		t.Error("node with one child on both sides accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"trees":[{"nodes":[{"f":0,"l":1,"r":2},{"f":0,"l":2,"r":3},`+leaf+`,`+leaf+`]}]}`), nil); err == nil {
		t.Error("subtree shared by two parents accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"feature_names":["a"],"trees":[{"nodes":[{"f":1,"l":1,"r":2},`+leaf+`,`+leaf+`]}]}`), nil); err == nil {
		t.Error("node testing a feature beyond the model's own names accepted")
	}
	// Without names to bound it, a feature beyond int32 must not wrap: 2^32
	// into a split on feature 0, 2^31 into a leaf with orphaned children.
	for _, f := range []string{"4294967296", "2147483648"} {
		if _, err := Load(strings.NewReader(
			`{"trees":[{"nodes":[{"f":`+f+`,"l":1,"r":2},`+leaf+`,`+leaf+`]}]}`), nil); err == nil {
			t.Errorf("node testing feature %s accepted", f)
		}
	}
}

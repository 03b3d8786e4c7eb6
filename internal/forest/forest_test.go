package forest

import (
	"bytes"
	"math"
	"math/rand"
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
	for i := 0; i < 20; i++ {
		v := X[i]
		if math.Abs((1-f.Entropy(v))-f.Confidence(v)) > 1e-12 {
			t.Fatal("Confidence != 1 - Entropy")
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

func TestNumLeaves(t *testing.T) {
	X, y := makeData(300, 8)
	f := Train(X, y, Defaults())
	if f.NumLeaves() < f.NumTrees() {
		t.Errorf("NumLeaves = %d < tree count", f.NumLeaves())
	}
}

func TestForestString(t *testing.T) {
	X, y := makeData(50, 9)
	f := Train(X, y, Defaults())
	s := f.String(func(i int) string { return "f" })
	if len(s) == 0 {
		t.Error("empty rendering")
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
	if g.NumTrees() != f.NumTrees() {
		t.Fatalf("trees = %d, want %d", g.NumTrees(), f.NumTrees())
	}
	for i := range X {
		if f.PosFraction(X[i]) != g.PosFraction(X[i]) {
			t.Fatalf("prediction mismatch on example %d", i)
		}
	}
	// Rule extraction survives the round trip.
	n1, p1 := f.Rules()
	n2, p2 := g.Rules()
	if len(n1) != len(n2) || len(p1) != len(p2) {
		t.Errorf("rules changed: %d/%d vs %d/%d", len(n1), len(p1), len(n2), len(p2))
	}
	// The training configuration survives too, so a snapshot forest is a
	// complete round trip of the trained state.
	if g.TrainConfig() != f.TrainConfig() {
		t.Errorf("config changed: %+v vs %+v", g.TrainConfig(), f.TrainConfig())
	}
	if g.TrainConfig().NumTrees == 0 {
		t.Error("loaded config is zero — training hyperparameters lost")
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
}

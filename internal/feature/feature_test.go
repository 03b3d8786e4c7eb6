package feature_test

import (
	"math"
	"testing"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/strutil"
)

func testDataset() *record.Dataset {
	schema := record.Schema{
		{Name: "name", Type: record.AttrString},
		{Name: "desc", Type: record.AttrText},
		{Name: "price", Type: record.AttrNumeric},
		{Name: "code", Type: record.AttrCategorical},
	}
	a := record.NewTable("a", schema)
	b := record.NewTable("b", schema)
	a.Append(record.Tuple{"kingston hyperx", "fast memory kit", "49.99", "KH123"})
	a.Append(record.Tuple{"sony camera", "compact zoom lens", "299.00", "SC900"})
	b.Append(record.Tuple{"Kingston HyperX", "fast memory kit deluxe", "$49.99", "kh123"})
	b.Append(record.Tuple{"panasonic tv", "", "", ""})
	return &record.Dataset{
		Name: "t", A: a, B: b,
		Truth: record.NewGroundTruth([]record.Pair{record.P(0, 0)}),
		Seeds: []record.Labeled{
			{Pair: record.P(0, 0), Match: true}, {Pair: record.P(1, 0), Match: true},
			{Pair: record.P(0, 1), Match: false}, {Pair: record.P(1, 1), Match: false},
		},
	}
}

func TestNewExtractorFeatureSet(t *testing.T) {
	ex := feature.NewExtractor(testDataset())
	// string: 6 measures, text: 3, numeric: 3, categorical: 3.
	if got := ex.NumFeatures(); got != 15 {
		t.Errorf("NumFeatures = %d, want 15", got)
	}
	names := map[string]bool{}
	for _, n := range ex.Names() {
		if names[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		names[n] = true
	}
	for _, want := range []string{"name_exact", "name_edit", "desc_tfidf_cos",
		"price_rel_diff", "price_abs_diff", "code_exact"} {
		if !names[want] {
			t.Errorf("missing feature %q", want)
		}
	}
}

func TestVectorValues(t *testing.T) {
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	v := ex.Vector(record.P(0, 0)) // the matching pair
	byName := map[string]float64{}
	for i, n := range ex.Names() {
		byName[n] = v[i]
	}
	if byName["name_exact"] != 1 {
		t.Errorf("name_exact = %v, want 1 (case-insensitive)", byName["name_exact"])
	}
	if byName["price_rel_diff"] != 1 {
		t.Errorf("price_rel_diff = %v, want 1 ($ prefix stripped)", byName["price_rel_diff"])
	}
	if byName["price_abs_diff"] != 0 {
		t.Errorf("price_abs_diff = %v, want 0", byName["price_abs_diff"])
	}
	if byName["code_exact"] != 1 {
		t.Errorf("code_exact = %v, want 1", byName["code_exact"])
	}
}

func TestMissingValuesYieldSentinel(t *testing.T) {
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	v := ex.Vector(record.P(0, 1)) // B row has empty desc/price/code
	byName := map[string]float64{}
	for i, n := range ex.Names() {
		byName[n] = v[i]
	}
	for _, f := range []string{"desc_jaccard_w", "price_rel_diff", "code_jaro_winkler"} {
		if byName[f] != feature.Missing {
			t.Errorf("%s = %v, want feature.Missing (%v)", f, byName[f], feature.Missing)
		}
	}
}

func TestSimilarityRangeOrMissing(t *testing.T) {
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			v := ex.Vector(record.P(a, b))
			for i, x := range v {
				name := ex.Name(i)
				if name == "price_abs_diff" {
					continue // unbounded by design
				}
				if x != feature.Missing && (x < 0 || x > 1) {
					t.Errorf("feature %s on (%d,%d) = %v outside [0,1]", name, a, b, x)
				}
			}
		}
	}
}

func TestComputeMatchesVector(t *testing.T) {
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	p := record.P(1, 1)
	v := ex.Vector(p)
	for i := range v {
		if got := ex.Compute(i, p); got != v[i] {
			t.Errorf("Compute(%d) = %v, Vector[%d] = %v", i, got, i, v[i])
		}
	}
}

func TestVectorsParallelMatchesSequential(t *testing.T) {
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	var pairs []record.Pair
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			pairs = append(pairs, record.P(a, b))
		}
	}
	got := ex.Vectors(pairs)
	for i, p := range pairs {
		want := ex.Vector(p)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("Vectors[%d][%d] = %v, want %v", i, j, got[i][j], want[j])
			}
		}
	}
}

// TestVectorsRowsIndependent pins the flat-backing contract: every row of
// Vectors is bit-for-bit the pair's own Vector, and is clipped to its own
// capacity, so appending to one row cannot write into the next.
func TestVectorsRowsIndependent(t *testing.T) {
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	var pairs []record.Pair
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			pairs = append(pairs, record.P(a, b))
		}
	}
	X := ex.Vectors(pairs)
	for i, p := range pairs {
		want := ex.Vector(p)
		if len(X[i]) != len(want) || cap(X[i]) != len(X[i]) {
			t.Fatalf("row %d: len %d cap %d, want len = cap = %d", i, len(X[i]), cap(X[i]), len(want))
		}
		for j := range want {
			if math.Float64bits(X[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("Vectors[%d][%d] = %v, Vector = %v", i, j, X[i][j], want[j])
			}
		}
	}
	next := append([]float64(nil), X[1]...)
	_ = append(X[0], -7)
	for j, v := range next {
		if math.Float64bits(X[1][j]) != math.Float64bits(v) {
			t.Fatalf("append to row 0 changed row 1 at %d", j)
		}
	}
}

func TestCostsPositive(t *testing.T) {
	ex := feature.NewExtractor(testDataset())
	for i := 0; i < ex.NumFeatures(); i++ {
		if ex.Cost(i) <= 0 {
			t.Errorf("feature %s has non-positive cost", ex.Name(i))
		}
	}
}

func TestParseNumeric(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"$19.99", 19.99, true},
		{"1,234.5", 1234.5, true},
		{" 7 ", 7, true},
		{"", 0, false},
		{"abc", 0, false},
	}
	for _, c := range cases {
		got, ok := strutil.ParseNumeric(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseNumeric(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestFeaturesAccessor(t *testing.T) {
	ex := feature.NewExtractor(testDataset())
	fs := ex.Features()
	if len(fs) != ex.NumFeatures() {
		t.Fatalf("Features() = %d entries", len(fs))
	}
	for i, f := range fs {
		if f.Name != ex.Name(i) || f.Cost != ex.Cost(i) {
			t.Errorf("feature %d inconsistent: %+v", i, f)
		}
		if f.AttrIdx < 0 || f.Attr == "" || f.Kind == "" {
			t.Errorf("feature %d incomplete: %+v", i, f)
		}
	}
}

func TestVectorsParallelLargeBatch(t *testing.T) {
	// Enough pairs to exercise the multi-worker chunking path.
	ds := testDataset()
	ex := feature.NewExtractor(ds)
	var pairs []record.Pair
	for i := 0; i < 500; i++ {
		pairs = append(pairs, record.P(i%ds.A.Len(), i%ds.B.Len()))
	}
	got := ex.Vectors(pairs)
	if len(got) != len(pairs) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range pairs {
		want := ex.Vector(pairs[i])
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Empty input is fine.
	if out := ex.Vectors(nil); len(out) != 0 {
		t.Error("Vectors(nil) should be empty")
	}
}

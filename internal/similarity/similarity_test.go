package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig gives every property test of the package a fixed generator:
// quick.Check seeds from the clock by default, which makes a rare
// counterexample a tier-1 flake instead of a failure. maxCount 0 keeps
// quick's default.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symmetric, quickConfig(0)); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, quickConfig(0)); err != nil {
		t.Error("identity:", err)
	}
	bounded := func(a, b string) bool {
		d := Levenshtein(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		max := la
		if lb > max {
			max = lb
		}
		min := la - lb
		if min < 0 {
			min = -min
		}
		return d >= min && d <= max
	}
	if err := quick.Check(bounded, quickConfig(0)); err != nil {
		t.Error("bounds:", err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Error(err)
	}
}

// unitRange checks a string similarity is within [0,1], symmetric, and 1 on
// identical inputs.
func unitRange(t *testing.T, name string, f func(a, b string) float64) {
	t.Helper()
	prop := func(a, b string) bool {
		s := f(a, b)
		if s < 0 || s > 1 || math.IsNaN(s) {
			return false
		}
		if math.Abs(f(a, b)-f(b, a)) > 1e-9 {
			return false
		}
		return f(a, a) > 0.999
	}
	if err := quick.Check(prop, quickConfig(300)); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestSimilarityRangeProperties(t *testing.T) {
	unitRange(t, "EditSim", EditSim)
	unitRange(t, "Jaro", Jaro)
	unitRange(t, "JaroWinkler", JaroWinkler)
	unitRange(t, "JaccardWords", JaccardWords)
	unitRange(t, "JaccardQGrams", JaccardQGrams)
	unitRange(t, "OverlapWords", OverlapWords)
	unitRange(t, "MongeElkan", MongeElkan)
}

func TestJaroKnownValues(t *testing.T) {
	// Classic textbook values.
	if got := Jaro("martha", "marhta"); math.Abs(got-0.944444) > 1e-4 {
		t.Errorf("Jaro(martha,marhta) = %v, want 0.9444", got)
	}
	if got := Jaro("dixon", "dicksonx"); math.Abs(got-0.766667) > 1e-4 {
		t.Errorf("Jaro(dixon,dicksonx) = %v, want 0.7667", got)
	}
	if Jaro("", "") != 1 {
		t.Error("Jaro of two empties should be 1")
	}
	if Jaro("a", "") != 0 {
		t.Error("Jaro with one empty should be 0")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Error("Jaro with no common characters should be 0")
	}
}

func TestJaroWinklerPrefixBoost(t *testing.T) {
	// A shared prefix should raise the score above plain Jaro.
	j, jw := Jaro("prefixes", "prefixed"), JaroWinkler("prefixes", "prefixed")
	if jw <= j {
		t.Errorf("JaroWinkler %v not boosted above Jaro %v", jw, j)
	}
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.961111) > 1e-4 {
		t.Errorf("JaroWinkler(martha,marhta) = %v, want 0.9611", got)
	}
}

func TestJaccardWords(t *testing.T) {
	if got := JaccardWords("a b c", "b c d"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if JaccardWords("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if JaccardWords("a", "") != 0 {
		t.Error("one empty should be 0")
	}
	if JaccardWords("x y", "x y") != 1 {
		t.Error("identical should be 1")
	}
}

func TestOverlapWords(t *testing.T) {
	// Containment scores 1 even when lengths differ.
	if got := OverlapWords("kingston hyperx", "kingston hyperx 4gb kit"); got != 1 {
		t.Errorf("containment overlap = %v, want 1", got)
	}
	if got := OverlapWords("a b", "c d"); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
}

func TestMongeElkan(t *testing.T) {
	// Token reorderings barely matter.
	s := MongeElkan("data mining principles", "principles data mining")
	if s < 0.99 {
		t.Errorf("reordered tokens score %v, want ~1", s)
	}
	if MongeElkan("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if MongeElkan("abc", "") != 0 {
		t.Error("one empty should be 0")
	}
}

func TestExactMatch(t *testing.T) {
	if ExactMatch("Foo  Bar", "foo bar") != 1 {
		t.Error("normalized equality should be 1")
	}
	if ExactMatch("a", "b") != 0 {
		t.Error("different should be 0")
	}
	if ExactMatch("", "") != 0.5 {
		t.Error("two missing should be unknown (0.5)")
	}
	if ExactMatch("a", "") != 0 {
		t.Error("one missing should be 0")
	}
}

func TestRelativeDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{10, 10, 1},
		{0, 0, 1},
		{10, 5, 0.5},
		{5, 10, 0.5},
		{-10, 10, 0},
		{0, 100, 0},
	}
	for _, c := range cases {
		if got := RelativeDiff(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelativeDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelativeDiffRange(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		s := RelativeDiff(a, b)
		return s >= 0 && s <= 1 && RelativeDiff(b, a) == s
	}
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Error(err)
	}
}

func TestAbsDiff(t *testing.T) {
	if AbsDiff(3, 5) != 2 || AbsDiff(5, 3) != 2 {
		t.Error("AbsDiff wrong")
	}
}

func TestTFIDFCosine(t *testing.T) {
	corpus := NewCorpus([]string{
		"kingston hyperx memory kit",
		"kingston fury memory kit",
		"sony camera lens",
		"sony camera body",
	})
	// Identical documents score 1.
	if got := corpus.Cosine("kingston hyperx memory", "kingston hyperx memory"); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical cosine = %v", got)
	}
	// Rare tokens ("hyperx") dominate common ones ("kit").
	sHyper := corpus.Cosine("kingston hyperx", "hyperx something")
	sKit := corpus.Cosine("kingston kit", "kit something")
	if sHyper <= sKit {
		t.Errorf("rare-token cosine %v should exceed common-token cosine %v", sHyper, sKit)
	}
	// Disjoint documents score 0; empties are unknown.
	if corpus.Cosine("alpha beta", "gamma delta") != 0 {
		t.Error("disjoint cosine should be 0")
	}
	if corpus.Cosine("", "") != 0.5 {
		t.Error("two empties should be 0.5")
	}
	if corpus.Cosine("a", "") != 0 {
		t.Error("one empty should be 0")
	}
}

func TestTFIDFCosineRange(t *testing.T) {
	corpus := NewCorpus([]string{"a b c", "b c d", "c d e"})
	f := func(a, b string) bool {
		s := corpus.Cosine(a, b)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestTFIDFUnknownTokenGetsMaxIDF(t *testing.T) {
	corpus := NewCorpus([]string{"a b", "a c"})
	if corpus.IDF("zzz") < corpus.IDF("a") {
		t.Error("unknown token should have at least the max IDF")
	}
}

// levenshteinRef is the textbook full-matrix DP, kept free of the trimming
// and early-exit shortcuts so it can referee them.
func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := 0; j <= len(rb); j++ {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min3(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return d[len(ra)][len(rb)]
}

// TestLevenshteinTrimExact pins the prefix/suffix-trimming fast path to the
// untrimmed reference on the shapes it short-circuits: shared prefixes,
// shared suffixes, containment (where the early exit returns the length
// difference), and arbitrary strings.
func TestLevenshteinTrimExact(t *testing.T) {
	cases := [][2]string{
		{"sony vaio laptop 15", "sony vaio laptop 17"}, // long shared prefix
		{"black usb cable 2m", "white usb cable 2m"},   // long shared suffix
		{"kingston hyperx", "kingston value hyperx"},   // prefix+suffix, insertion
		{"abcdef", "abc"},                  // containment: exit = len diff
		{"abc", "abcdef"},                  // containment, other side
		{"abcdef", "abcdef"},               // identical: trims to empty
		{"", "abc"}, {"abc", ""}, {"", ""}, // empty edges
		{"aaaa", "aa"},         // repeated runes trim greedily
		{"réservé", "reserve"}, // multibyte runes
	}
	for _, c := range cases {
		if got, want := Levenshtein(c[0], c[1]), levenshteinRef(c[0], c[1]); got != want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c[0], c[1], got, want)
		}
	}
	f := func(a, b string) bool { return Levenshtein(a, b) == levenshteinRef(a, b) }
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Error("reference equivalence:", err)
	}
}

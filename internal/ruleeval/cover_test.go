package ruleeval

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
)

// edgeValues are the ordered values a comparison other than the plain float
// "v <= thr" gets wrong: feature.Missing, -0 beside +0, ±Inf and the
// smallest magnitudes. No NaN — CoverByLeaf's doc comment says why.
var edgeValues = []float64{feature.Missing, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	-0.25, 0.5, 1, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}

// checkCover compares CoverByLeaf with Rule.Matches row by row for every
// rule of both polarities, its candidate lists — order, dropped empties,
// representation — with MakeCandidates over f.Rules(), and its votes with
// Forest.Predict (checkVotes), at GOMAXPROCS 1 and 4.
func checkCover(t testing.TB, what string, f *forest.Forest, X [][]float64) (negative, positive []Candidate) {
	t.Helper()
	negRules, posRules := f.Rules()
	wantNeg, wantPos := MakeCandidates(negRules, X), MakeCandidates(posRules, X)
	checkVotes(t, what, f, X)
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		negative, positive, _ = CoverByLeaf(f, X)
		runtime.GOMAXPROCS(old)
		for _, c := range append(append([]Candidate{}, negative...), positive...) {
			for i, v := range X {
				if c.Coverage.Has(i) != c.Rule.Matches(v) {
					t.Fatalf("%s procs=%d: rule %v: row %d %v: leaf walk says %v, Rule.Matches %v",
						what, procs, c.Rule, i, v, c.Coverage.Has(i), c.Rule.Matches(v))
				}
			}
		}
		if !reflect.DeepEqual(negative, wantNeg) || !reflect.DeepEqual(positive, wantPos) {
			t.Fatalf("%s procs=%d: candidates differ from MakeCandidates over Rules(): %d/%d negative, %d/%d positive",
				what, procs, len(negative), len(wantNeg), len(positive), len(wantPos))
		}
	}
	return negative, positive
}

// checkVotes compares the votes of CoverByLeaf's walk with Forest.Predict
// row by row at GOMAXPROCS 1 and 4. Unlike the coverages, the votes hold on
// NaN rows: the walk and Predict both send a NaN right. It returns how many
// rows tie at exactly half the trees voting "match".
func checkVotes(t testing.TB, what string, f *forest.Forest, X [][]float64) (ties int) {
	t.Helper()
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		_, _, match := CoverByLeaf(f, X)
		runtime.GOMAXPROCS(old)
		if len(match) != len(X) {
			t.Fatalf("%s procs=%d: %d votes for %d rows", what, procs, len(match), len(X))
		}
		for i, v := range X {
			if match[i] != f.Predict(v) {
				t.Fatalf("%s procs=%d: row %d %v: walk votes %v, Predict %v", what, procs, i, v, match[i], f.Predict(v))
			}
		}
	}
	for _, v := range X {
		if math.Abs(f.PosFraction(v)-0.5) < 1e-9 {
			ties++
		}
	}
	return ties
}

// TestCoverVotesMatchPredict checks the walk's majority vote against
// Forest.Predict on forests of odd and even k, whose rows include ties at
// k/2 (Predict says no match), NaN features and every edge value, over a row
// count that is not a multiple of 64; and on the hand-built colliding
// forest, whose four trees tie on known rows.
func TestCoverVotesMatchPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func(nf int) []float64 {
		v := make([]float64, nf)
		for j := range v {
			switch rng.Intn(4) {
			case 0:
				v[j] = edgeValues[rng.Intn(len(edgeValues))]
			case 1:
				v[j] = math.NaN()
			default:
				v[j] = float64(rng.Intn(8)) / 8
			}
		}
		return v
	}
	for _, k := range []int{1, 2, 3, 4, 5, 10} {
		const nf = 3
		var trainX [][]float64
		var trainY []bool
		for i := 0; i < 60; i++ {
			v := make([]float64, nf)
			for j := range v {
				v[j] = float64(rng.Intn(8)) / 8
			}
			trainX, trainY = append(trainX, v), append(trainY, rng.Intn(3) == 0)
		}
		cfg := forest.Defaults()
		cfg.NumTrees, cfg.Seed = k, int64(k)
		f := forest.Train(trainX, trainY, cfg)
		var X [][]float64
		for i := 0; i < 64*3+7; i++ {
			X = append(X, row(nf))
		}
		ties := checkVotes(t, fmt.Sprintf("k=%d", k), f, X)
		if k%2 == 0 && ties == 0 {
			t.Fatalf("k=%d: no row ties at k/2; the case is vacuous", k)
		}
	}

	f := collidingForest(t)
	nan := math.NaN()
	var X [][]float64
	for _, a := range append([]float64{0.3, 0.7, nan}, edgeValues...) {
		for _, b := range []float64{-6, feature.Missing, 0.4, nan} {
			X = append(X, []float64{a, b})
		}
	}
	// Row (0.3, 0.4): trees 1 and 2 vote no, trees 3 and 4 match.
	if checkVotes(t, "colliding", f, X) == 0 {
		t.Fatal("colliding: no row ties at k/2; the case is vacuous")
	}
}

// atThresholds returns, for every predicate of every rule of f, a copy of
// one row of X with that feature set exactly to the threshold and one with
// it set to the next float64 above.
func atThresholds(f *forest.Forest, X [][]float64) [][]float64 {
	neg, pos := f.Rules()
	var out [][]float64
	for ri, r := range append(neg, pos...) {
		for _, p := range r.Preds {
			for _, v := range []float64{p.Threshold, math.Nextafter(p.Threshold, math.Inf(1))} {
				row := append([]float64(nil), X[(7*ri)%len(X)]...)
				row[p.Feature] = v
				out = append(out, row)
			}
		}
	}
	return out
}

// datasetPool vectorises a datagen instance as a run does — every true match
// plus a strided sample of A×B — and trains a forest on the matches and
// every 20th other row, one label in twenty flipped as a noisy crowd would,
// which keeps the trees splitting.
func datasetPool(t testing.TB, name string, scale float64) (*forest.Forest, [][]float64) {
	t.Helper()
	ds, err := datagen.DatasetFor(name, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := ds.A.Len(), ds.B.Len()
	stride := (na*nb + 5999) / 6000
	pairs := ds.Truth.Matches()
	matches := len(pairs)
	for i := 0; i < na*nb; i += stride {
		pairs = append(pairs, record.P(i/nb, i%nb))
	}
	X := feature.NewExtractor(ds).Vectors(pairs)
	rng := rand.New(rand.NewSource(1))
	var trainX [][]float64
	var trainY []bool
	for i, v := range X {
		if i < matches || i%20 == 0 {
			trainX = append(trainX, v)
			trainY = append(trainY, ds.Truth.Match(pairs[i]) != (rng.Intn(20) == 0))
		}
	}
	return forest.Train(trainX, trainY, forest.Defaults()), X
}

// collidingForest is a hand-built model, loaded as a journal snapshot would
// be: trees 1 and 2 split feature 0 at thresholds that differ in the
// thirteenth digit, so their leaves share a Key() (which prints nine) while
// rows between the two thresholds reach different sides; tree 3 is a single
// leaf, whose predicate-less rule Rules() skips; tree 4's left leaf needs
// feature 1 below -5, which no row has.
func collidingForest(t testing.TB) *forest.Forest {
	t.Helper()
	const leaves = `{"f":-1,"n":1,"l":-1,"r":-1},{"f":-1,"y":true,"p":1,"l":-1,"r":-1}`
	model := `{"feature_names":["a","b"],"trees":[` +
		`{"nodes":[{"f":0,"t":0.5,"l":1,"r":2},` + leaves + `]},` +
		`{"nodes":[{"f":0,"t":0.5000000000001,"l":1,"r":2},` + leaves + `]},` +
		`{"nodes":[{"f":-1,"y":true,"p":3,"l":-1,"r":-1}]},` +
		`{"nodes":[{"f":1,"t":-5,"l":1,"r":2},` + leaves + `]}]}`
	f, err := forest.Load(strings.NewReader(model), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCoverMatchesRuleMatches is CoverByLeaf's differential test: on forests
// trained on the three datasets' extractor vectors, the same forests after a
// Save/Load round trip, and the hand-built colliding forest, over a row count
// that is not a multiple of 64 and rows holding Missing, -0, ±Inf and values
// exactly at (and one ulp above) every split threshold.
func TestCoverMatchesRuleMatches(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"restaurants", 0.3}, {"citations", 0.03}, {"products", 0.05}} {
		name := c.name
		f, X := datasetPool(t, name, c.scale)
		X = append(X, atThresholds(f, X)...)
		rng := rand.New(rand.NewSource(2))
		missing := false
		for i := range X {
			if i%9 == 0 {
				X[i] = append([]float64(nil), X[i]...)
				X[i][rng.Intn(len(X[i]))] = edgeValues[rng.Intn(len(edgeValues))]
			}
			for _, v := range X[i] {
				missing = missing || v == feature.Missing
				if math.IsNaN(v) {
					t.Fatalf("%s: row %d holds a NaN", name, i)
				}
			}
		}
		if len(X)%64 == 0 {
			X = X[:len(X)-1]
		}
		if !missing {
			t.Fatalf("%s: no row holds feature.Missing; the case is vacuous", name)
		}
		neg, pos := checkCover(t, name, f, X)
		if len(neg) == 0 || len(pos) == 0 {
			t.Fatalf("%s: %d negative and %d positive candidates; the case is vacuous", name, len(neg), len(pos))
		}

		var buf bytes.Buffer
		if err := f.Save(&buf, nil); err != nil {
			t.Fatal(err)
		}
		g, err := forest.Load(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		negG, posG := checkCover(t, name+" reloaded", g, X)
		if !reflect.DeepEqual(negG, neg) || !reflect.DeepEqual(posG, pos) {
			t.Fatalf("%s: candidates change across Save/Load", name)
		}

		// The blocker orders each candidate's predicates by feature cost after
		// the walk; it used to order the rules before MakeCandidates.
		cost := func(feat int) float64 { return float64((feat * 7) % 5) }
		sorted, _ := f.Rules()
		for i := range sorted {
			sorted[i].SortPredsByCost(cost)
		}
		for i := range neg {
			neg[i].Rule.SortPredsByCost(cost)
		}
		if !reflect.DeepEqual(neg, MakeCandidates(sorted, X)) {
			t.Fatalf("%s: sorting predicates after the walk differs from sorting the rules before the scan", name)
		}
	}

	f := collidingForest(t)
	negRules, posRules := f.Rules()
	if len(negRules) != 2 || len(posRules) != 2 {
		t.Fatalf("colliding forest: %d negative and %d positive rules, want 2 and 2 (one per key)", len(negRules), len(posRules))
	}
	var X [][]float64
	for _, a := range append([]float64{0.3, 0.7, 0.50000000000005, 0.5000000000001,
		math.Nextafter(0.5, 1), math.Nextafter(0.5000000000001, 1)}, edgeValues...) {
		for _, b := range []float64{feature.Missing, 0, 0.4} {
			X = append(X, []float64{a, b})
		}
	}
	neg, pos := checkCover(t, "colliding", f, X)
	// Rows 6–14 lie between the two thresholds: tree 1 sends them right, tree
	// 2 left, into the leaf that shares the negative rule's key.
	between := rowsOf(len(X), 6, 7, 8, 9, 10, 11, 12, 13, 14)
	if len(neg) != 1 || len(pos) != 2 || neg[0].Coverage.AndCount(between) != 0 ||
		pos[0].Coverage.AndCount(between) != between.Len() {
		t.Fatalf("colliding: %d negative, %d positive candidates; the negative rule must keep only its first-seen leaf's rows and the empty rule must be dropped", len(neg), len(pos))
	}
}

// FuzzCover trains a forest on a random small training set drawn from the
// finite edgeValues and a few ordinary fractions — so thresholds land on and
// between the edge values, and none is the NaN midpoint of -Inf and +Inf —
// and compares the leaf walk with Rule.Matches, MakeCandidates and
// Forest.Predict over random rows of all the edge values, then its votes
// with Predict once more after a NaN is written into some of the rows.
func FuzzCover(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(100))
	f.Add(int64(2), uint8(4), uint8(1), uint8(65))
	f.Add(int64(3), uint8(200), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nTrain, nFeat, nRows uint8) {
		rng := rand.New(rand.NewSource(seed))
		nf := 1 + int(nFeat)%6
		rows := func(n int, finite bool) [][]float64 {
			X := make([][]float64, n)
			for i := range X {
				X[i] = make([]float64, nf)
				for j := range X[i] {
					X[i][j] = float64(rng.Intn(8)) / 8
					if v := edgeValues[rng.Intn(len(edgeValues))]; rng.Intn(3) == 0 && !(finite && math.IsInf(v, 0)) {
						X[i][j] = v
					}
				}
			}
			return X
		}
		trainX := rows(1+int(nTrain), true)
		trainY := make([]bool, len(trainX))
		for i := range trainY {
			trainY[i] = rng.Intn(3) == 0
		}
		cfg := forest.Defaults()
		cfg.NumTrees = 1 + rng.Intn(5)
		cfg.Seed = seed
		g, X := forest.Train(trainX, trainY, cfg), rows(int(nRows), false)
		checkCover(t, fmt.Sprintf("seed %d", seed), g, X)
		for i := range X {
			if rng.Intn(4) == 0 {
				X[i][rng.Intn(nf)] = math.NaN()
			}
		}
		checkVotes(t, fmt.Sprintf("seed %d with NaN", seed), g, X)
	})
}

// TestContradicting covers both polarities over an ascending pair list, the
// blocker's shape (ascending, then a few unordered seeds), a list in no
// order at all and an empty one, with known pairs that are absent from
// pairs, listed twice in pairs, and listed twice in known.
func TestContradicting(t *testing.T) {
	P := record.P
	known := []record.Labeled{
		{Pair: P(0, 2), Match: true}, {Pair: P(3, 1), Match: false}, {Pair: P(9, 9), Match: true},
		{Pair: P(1, 0), Match: true}, {Pair: P(0, 0), Match: false}, {Pair: P(1, 0), Match: true},
		{Pair: P(4, 4), Match: false}, {Pair: P(0, 1), Match: true},
	}
	ascending := []record.Pair{P(0, 0), P(0, 2), P(1, 0), P(1, 5), P(3, 1), P(3, 2), P(7, 0)}
	for _, c := range []struct {
		name     string
		pairs    []record.Pair
		pos, neg []int
	}{
		{"ascending", ascending, []int{1, 2}, []int{0, 4}},
		{"ascending then seeds", append(append([]record.Pair{}, ascending...), P(4, 4), P(0, 1), P(0, 2)),
			[]int{2, 8, 9}, []int{0, 4, 7}},
		{"unordered", []record.Pair{P(3, 1), P(1, 0), P(0, 0), P(1, 0), P(5, 5)}, []int{3}, []int{0, 2}},
		{"one pair", []record.Pair{P(1, 0)}, []int{0}, nil},
		{"empty", nil, nil, nil},
	} {
		if got := Contradicting(c.pairs, known, true); !reflect.DeepEqual(got, rowsOf(len(c.pairs), c.pos...)) {
			t.Errorf("%s: positives at %v, want %v", c.name, got.AppendTo(nil), c.pos)
		}
		if got := Contradicting(c.pairs, known, false); !reflect.DeepEqual(got, rowsOf(len(c.pairs), c.neg...)) {
			t.Errorf("%s: negatives at %v, want %v", c.name, got.AppendTo(nil), c.neg)
		}
		if got := Contradicting(c.pairs, nil, true); got.Len() != 0 || got.Universe() != len(c.pairs) {
			t.Errorf("%s: empty known gives %v over %d rows", c.name, got.AppendTo(nil), got.Universe())
		}
	}

	// Against the map-based definition on random lists: ascending, ascending
	// with an unordered tail, and shuffled with repeats.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		var pairs []record.Pair
		for a := 0; a < 12; a++ {
			for b := 0; b < 12; b++ {
				if rng.Intn(3) == 0 {
					pairs = append(pairs, P(a, b))
				}
			}
		}
		switch trial % 3 {
		case 1:
			for k := rng.Intn(5); k > 0; k-- {
				pairs = append(pairs, P(rng.Intn(12), rng.Intn(12)))
			}
		case 2:
			pairs = append(pairs, pairs[:len(pairs)/3]...)
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		}
		var known []record.Labeled
		for k := rng.Intn(30); k > 0; k-- {
			known = append(known, record.Labeled{Pair: P(rng.Intn(13), rng.Intn(13)), Match: rng.Intn(2) == 0})
		}
		for _, match := range []bool{true, false} {
			last := map[record.Pair]int{}
			for i, p := range pairs {
				last[p] = i
			}
			want := NewRowSet(len(pairs))
			for _, l := range known {
				if i, ok := last[l.Pair]; ok && l.Match == match {
					want.Add(i)
				}
			}
			if got := Contradicting(pairs, known, match); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d match=%v: rows %v, want %v", trial, match, got.AppendTo(nil), want.AppendTo(nil))
			}
		}
	}
}

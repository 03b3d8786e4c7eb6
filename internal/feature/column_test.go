package feature_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
)

// edgeRows is how many rows withEdgeRows appends to each table.
const edgeRows = 11

// withEdgeRows returns ds with rows appended to both tables that the column
// kernels' case analysis must get right: a row of missing values, a row of
// present values without word tokens, a row whose text repeats tokens
// (tf > 1), two copies of an existing row (duplicate values share one
// profile and, in table B, sit at several positions of a run), and for the
// edit column a value of one rune, of 64 (the longest pattern one word
// holds), of 65 (a row of A that stays on the pair path) and one whose runes
// lie beyond the ASCII mask table.
func withEdgeRows(ds *record.Dataset) *record.Dataset {
	for _, t := range []*record.Table{ds.A, ds.B} {
		w := len(t.Schema)
		same := func(v string) record.Tuple {
			row := make(record.Tuple, w)
			for i := range row {
				row[i] = v
			}
			return row
		}
		missing, tokenless, repeats := same(""), same("?!"), make(record.Tuple, w)
		for i := range t.Schema {
			repeats[i] = "kit the kit kit the " + t.Rows[1][i]
		}
		dup := append(record.Tuple(nil), t.Rows[0]...)
		rows := []record.Tuple{missing, tokenless, repeats, dup, dup, missing, tokenless,
			same("x"), same(strings.Repeat("abcdefgh", 8)), same(strings.Repeat("abcdefgh", 8) + "i"), same("añb ü東京 naïve café")}
		if len(rows) != edgeRows {
			panic("withEdgeRows: edgeRows is out of date")
		}
		for _, row := range rows {
			t.Append(append(record.Tuple(nil), row...))
		}
	}
	return ds
}

// commonTokenDataset is a dataset whose "desc" column holds one token in
// every row of both tables — document frequency equals the document count,
// so its IDF is exactly 0 — among small-vocabulary text with repeats, and
// whose "note" column mixes missing, token-less and ordinary values. The
// "code" column is low-cardinality enough to get a value-pair table, the
// case a column kernel must leave alone.
func commonTokenDataset(seed int64, na, nb int) *record.Dataset {
	schema := record.Schema{
		{Name: "name", Type: record.AttrString},
		{Name: "desc", Type: record.AttrText},
		{Name: "note", Type: record.AttrText},
		{Name: "code", Type: record.AttrCategorical},
	}
	rng := rand.New(rand.NewSource(seed))
	words := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = fmt.Sprintf("w%d", rng.Intn(12))
		}
		return strings.Join(ws, " ")
	}
	fill := func(t *record.Table, n int) {
		for r := 0; r < n; r++ {
			note := words(1 + rng.Intn(5))
			switch rng.Intn(5) {
			case 0:
				note = ""
			case 1:
				note = "--"
			}
			t.Append(record.Tuple{words(1 + rng.Intn(3)), "common " + words(rng.Intn(6)), note, fmt.Sprintf("c%d", rng.Intn(3))})
		}
	}
	a, b := record.NewTable("a", schema), record.NewTable("b", schema)
	fill(a, na)
	fill(b, nb)
	return &record.Dataset{Name: "common", A: a, B: b, Truth: record.NewGroundTruth(nil)}
}

// columnFeatures returns the features run computes by walking postings.
func columnFeatures(ex *feature.Extractor, run *feature.Run) []int {
	var fs []int
	for f := 0; f < ex.NumFeatures(); f++ {
		if run.HasColumn(f) {
			fs = append(fs, f)
		}
	}
	return fs
}

// positionLists returns the shapes of list ColumnAt is asked for over a run
// of n positions: all of them, a dense third (the postings walk's side of the
// sparseList rule), one in forty (the set measures' pair-by-pair side; edit
// is a column at any length), the odd positions up to the last, a single one,
// and none.
func positionLists(n int) [][]int32 {
	lists := make([][]int32, 6)
	for k := 0; k < n; k++ {
		lists[0] = append(lists[0], int32(k))
		if k%3 == 1 {
			lists[1] = append(lists[1], int32(k))
		}
		if k%40 == 7 {
			lists[2] = append(lists[2], int32(k))
		}
		if k%2 == 1 || k == n-1 {
			lists[3] = append(lists[3], int32(k))
		}
	}
	lists[4] = []int32{int32(n / 2)}
	return lists
}

// checkColumns compares every feature in fs over the run bs, for every row
// of table A, with ComputeScratch, bit for bit: the whole column at the given
// stride, then ColumnAt over each of positionLists, which must write the
// listed positions and nothing else. The rows of A are fanned out over
// GOMAXPROCS goroutines sharing the run, so the lazy view builds race the way
// they do in a scan.
func checkColumns(t *testing.T, label string, ex *feature.Extractor, bs []int32, fs []int, stride int) {
	t.Helper()
	run := ex.NewRun(bs)
	lists := positionLists(len(bs))
	untouched := math.Float64frombits(0x7ff8_0000_dead_beef)
	par.For(ex.A.Len(), func(lo, hi int) {
		s := similarity.NewScratch()
		rs := feature.RunScratch{Pair: s}
		dst, at, want := make([]float64, len(bs)*stride), make([]float64, len(bs)), make([]float64, len(bs))
		for a := lo; a < hi; a++ {
			for _, f := range fs {
				run.Column(f, int32(a), dst, stride, &rs)
				for k, b := range bs {
					want[k] = ex.ComputeScratch(f, record.Pair{A: int32(a), B: b}, s)
					if got := dst[k*stride]; math.Float64bits(got) != math.Float64bits(want[k]) {
						t.Errorf("%s: %s(a=%d, b=%d at position %d) = %v (%#x), pair kernel %v (%#x)", label,
							ex.Name(f), a, b, k, got, math.Float64bits(got), want[k], math.Float64bits(want[k]))
						return
					}
				}
				for _, pos := range lists {
					for k := range at {
						at[k] = untouched
					}
					run.ColumnAt(f, int32(a), pos, at, &rs)
					for _, k := range pos {
						if math.Float64bits(at[k]) != math.Float64bits(want[k]) {
							t.Errorf("%s: ColumnAt %s(a=%d, position %d of a list of %d) = %v (%#x), pair kernel %v (%#x)", label,
								ex.Name(f), a, k, len(pos), at[k], math.Float64bits(at[k]), want[k], math.Float64bits(want[k]))
							return
						}
						at[k] = untouched
					}
					for k, x := range at {
						if math.Float64bits(x) != math.Float64bits(untouched) {
							t.Errorf("%s: ColumnAt %s(a=%d, a list of %d) wrote position %d, which is not in the list", label, ex.Name(f), a, len(pos), k)
							return
						}
					}
				}
			}
		}
	})
}

func allRows(n int) []int32 {
	bs := make([]int32, n)
	for i := range bs {
		bs[i] = int32(i)
	}
	return bs
}

// TestColumnMatchesPair is the column kernels' differential test: every
// feature with a column — the set measures and edit — on the three generated
// dataset families plus the edge rows and on the zero-IDF dataset, over all
// of table B, over it less its last row (one of the two has an odd length, so
// the edit column's single-text tail runs) and over a sorted subset of it, at
// GOMAXPROCS 1 and 4 and strides 1 to 3, whole and by position list, equals
// ComputeScratch to the bit. A feature without a column (a tabled one, a
// character or numeric measure) and a run too short for one go through the
// same calls and must agree as well.
func TestColumnMatchesPair(t *testing.T) {
	type tc struct {
		name string
		ds   *record.Dataset
	}
	var cases []tc
	for _, c := range []struct {
		name  string
		scale float64
	}{{"restaurants", 0.5}, {"citations", 0.03}, {"products", 0.05}} {
		ds, err := datagen.DatasetFor(c.name, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{c.name, withEdgeRows(ds)})
	}
	cases = append(cases, tc{"common-token", commonTokenDataset(3, 30, 150)})
	for _, c := range cases {
		ex := feature.NewExtractor(c.ds)
		nb := c.ds.B.Len()
		var subset []int32
		for b := 0; b < nb; b += 2 {
			subset = append(subset, int32(b))
		}
		// The edge rows are the table's last edgeRows; the subset keeps them all.
		subset = append(subset[:len(subset)-(edgeRows+1)/2], allRows(nb)[nb-edgeRows:]...)
		full := ex.NewRun(allRows(nb))
		fs := columnFeatures(ex, full)
		if len(fs) == 0 {
			t.Fatalf("%s: no feature has a column over %d rows", c.name, nb)
		}
		tabled := 0
		for f, ft := range ex.Features() {
			if (ft.Kind == "jaccard_3g" || ft.Kind == "jaccard_w") && !full.HasColumn(f) {
				tabled++
			}
		}
		if c.name == "common-token" && tabled == 0 {
			t.Errorf("%s: expected the code column's value-pair table to keep its set measure off the column path", c.name)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("%s GOMAXPROCS=%d", c.name, procs)
			checkColumns(t, label+" all of B", ex, allRows(nb), fs, 1)
			checkColumns(t, label+" all but the last", ex, allRows(nb-1), fs, 2)
			checkColumns(t, label+" subset", ex, subset, fs, 3)
			runtime.GOMAXPROCS(prev)
		}
		// Everything else Column is asked for is the pair kernel's answer.
		all := make([]int, ex.NumFeatures())
		for i := range all {
			all[i] = i
		}
		checkColumns(t, c.name+" short run", ex, subset[len(subset)-20:], all, 1)
		if testing.Short() {
			continue
		}
		checkColumns(t, c.name+" every feature", ex, subset, all, 2)
	}
}

// TestColumnWalksCommonTokens walks postings that every row of the run
// holds: in a table of near-identical rows four of each row's five tokens
// have the whole run as their list, so every position is touched by several
// lists and counts up past one. The values must still be the pair kernel's.
func TestColumnWalksCommonTokens(t *testing.T) {
	schema := record.Schema{{Name: "name", Type: record.AttrString}, {Name: "n", Type: record.AttrNumeric}}
	a, b := record.NewTable("a", schema), record.NewTable("b", schema)
	// The trailing number keeps the names distinct enough that the column
	// gets no value-pair table, which would take it off the column path.
	for r := 0; r < 8; r++ {
		a.Append(record.Tuple{fmt.Sprintf("north south east west %d", r), fmt.Sprint(r)})
	}
	for r := 0; r < 200; r++ {
		b.Append(record.Tuple{fmt.Sprintf("north south east west %d", r%97), fmt.Sprint(r)})
	}
	ex := feature.NewExtractor(&record.Dataset{Name: "same", A: a, B: b, Truth: record.NewGroundTruth(nil)})
	bs := allRows(b.Len())
	fs := columnFeatures(ex, ex.NewRun(bs))
	if len(fs) == 0 {
		t.Fatal("the name column has no column kernel; the test exercises nothing")
	}
	checkColumns(t, "identical rows", ex, bs, fs, 1)
}

// maxTile is the largest tile of rows of A the sweep behind Vectors'
// jaro_winkler tile tried (DESIGN.md "Pair kernels": 8, 16, 32 or 64). A
// table of 2·maxTile+7 rows holds two whole tiles and part of a third, or
// more, whichever jaroTile is; maxTile rows are whole tiles.
const maxTile = 64

// tabled reports whether attribute attr has a value-pair table: the only
// reason a string attribute's set measure has no column over a run.
func tabled(ex *feature.Extractor, run *feature.Run, attr int) bool {
	for f, ft := range ex.Features() {
		if ft.AttrIdx == attr && ft.Kind == "jaccard_3g" {
			return !run.HasColumn(f)
		}
	}
	return false
}

// TestVectorsRunShapes feeds Vectors every arrangement of pairs its run
// detection has to classify — a clean cross product of two whole tiles of
// rows of A and part of a third, whole tiles only, whole tiles and one run, one
// with a pair missing from one run, shuffled, with pairs repeated, with
// one-row runs, A × one B row alone, with runs of five rows, with a sparse
// tail — at GOMAXPROCS 1 to 4, where par.For's chunk boundaries cut runs and
// tiles at different places, and expects each row to be the pair's own
// Vector, clipped to its own capacity: appending to a row reallocates it and
// leaves its neighbour alone.
func TestVectorsRunShapes(t *testing.T) {
	ds, err := datagen.DatasetFor("restaurants", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds = withEdgeRows(ds)
	ex := feature.NewExtractor(ds)
	na, nb := 2*maxTile+7, ds.B.Len()
	if !slices.ContainsFunc(ex.Features(), func(ft feature.Feature) bool {
		return ft.Kind == "jaro_winkler" && !tabled(ex, ex.NewRun(allRows(nb)), ft.AttrIdx)
	}) {
		t.Fatal("no untabled jaro_winkler feature: the tile is not exercised")
	}
	var cross []record.Pair
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b += 2 {
			cross = append(cross, record.P(a, b))
		}
	}
	run := len(cross) / na
	rng := rand.New(rand.NewSource(5))
	shuffled := append([]record.Pair(nil), cross...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var doubled, oneRow, short []record.Pair
	for _, p := range cross {
		doubled = append(doubled, p, p)
		if p.B < 10 {
			short = append(short, p)
		}
	}
	for b := 0; b < nb; b++ {
		for a := 0; a < na; a++ {
			oneRow = append(oneRow, record.P(a, b))
		}
	}
	shapes := []struct {
		name  string
		pairs []record.Pair
	}{
		{"cross product", cross},
		{"whole tiles", cross[:maxTile*run]},
		{"whole tiles and one run", cross[:(maxTile+1)*run]},
		{"one pair deleted", append(append([]record.Pair(nil), cross[:5*run+7]...), cross[5*run+8:]...)},
		{"first run short", cross[3:]},
		{"shuffled", shuffled},
		{"pairs doubled", doubled},
		{"runs repeated", append(append([]record.Pair(nil), cross...), cross[2*run:4*run]...)},
		{"one-row runs", oneRow},
		{"A × one B row", oneRow[:na]},
		{"runs of five rows", short},
		{"sparse tail", append(append([]record.Pair(nil), cross...), shuffled[:50]...)},
		{"one run", cross[:run]},
		{"empty", nil},
	}
	want := map[record.Pair][]float64{}
	for _, p := range oneRow {
		want[p] = ex.Vector(p)
	}
	for procs := 1; procs <= 4; procs++ {
		prev := runtime.GOMAXPROCS(procs)
		for _, s := range shapes {
			X := ex.Vectors(s.pairs)
			if len(X) != len(s.pairs) {
				t.Fatalf("%s: %d rows for %d pairs", s.name, len(X), len(s.pairs))
			}
			for i, p := range s.pairs {
				if len(X[i]) != len(want[p]) || cap(X[i]) != len(X[i]) {
					t.Fatalf("%s GOMAXPROCS=%d: row %d has len %d cap %d", s.name, procs, i, len(X[i]), cap(X[i]))
				}
				if grown := append(X[i], -7); len(X[i]) > 0 && &grown[0] == &X[i][0] {
					t.Fatalf("%s GOMAXPROCS=%d: appending to row %d wrote into the backing array", s.name, procs, i)
				}
				for f, w := range want[p] {
					if math.Float64bits(X[i][f]) != math.Float64bits(w) {
						t.Fatalf("%s GOMAXPROCS=%d: Vectors[%d][%s] of %v = %v, Vector gives %v",
							s.name, procs, i, ex.Name(f), p, X[i][f], w)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestColumnZeroAllocSteadyState pins the kernels' steady state: with the
// runs' views built and the scratch warm, a column allocates nothing —
// whether it walks, re-reads a shared walk, runs the edit or the Monge-Elkan
// column, reads a value-pair table's cells or falls back pair by pair, whole
// or by position list — and neither does one RunScratch taken back and forth
// between two runs of different lengths, the way a prober alternates shards:
// its arrays are sized once, by the longer. Nor does a bounded feature's
// BoundAt once the column's bags are built. A warm Vectors over a cross
// product allocates per call — its output, the run and its views, a scratch
// per worker — and nothing per row of A, per tile or per pair
// (checkVectorsAllocs).
func TestColumnZeroAllocSteadyState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mongeElkan, anyTabled, anyBound bool
	for _, c := range []struct {
		name  string
		scale float64
	}{{"products", 0.05}, {"restaurants", 0.5}} {
		ds, err := datagen.DatasetFor(c.name, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		ex := feature.NewExtractor(withEdgeRows(ds))
		bs := allRows(ds.B.Len())
		runs := []*feature.Run{ex.NewRun(bs), ex.NewRun(bs[:len(bs)/3]), ex.NewRun(bs[len(bs)/2:])}
		thirds := make([][]int32, len(runs))
		for i, run := range runs {
			thirds[i] = positionLists(len(run.Rows()))[1]
		}
		for f, ft := range ex.Features() {
			mongeElkan = mongeElkan || ft.Kind == "monge_elkan" && runs[0].HasColumn(f)
			anyTabled = anyTabled || tabled(ex, runs[0], ft.AttrIdx)
			anyBound = anyBound || runs[0].HasBound(f)
		}
		rs := feature.RunScratch{Pair: similarity.NewScratch()}
		dst := make([]float64, len(bs))
		sweep := func() {
			for a := 0; a < ds.A.Len(); a++ {
				for i, run := range runs {
					third := thirds[i]
					for f := 0; f < ex.NumFeatures(); f++ {
						run.Column(f, int32(a), dst, 1, &rs)
						run.ColumnAt(f, int32(a), third, dst, &rs)
						if run.HasBound(f) {
							run.BoundAt(f, int32(a), third, dst)
						}
					}
				}
			}
		}
		sweep()
		if n := testing.AllocsPerRun(3, sweep); n != 0 {
			t.Errorf("%s: a warm column sweep allocates %v times, want 0", c.name, n)
		}

		if c.name == "restaurants" {
			checkVectorsAllocs(t, ex, bs)
		}
	}
	if !mongeElkan || !anyTabled || !anyBound {
		t.Errorf("the sweeps cover a Monge-Elkan column %v, a value-pair table %v and a bound %v, want all three",
			mongeElkan, anyTabled, anyBound)
	}
}

// checkVectorsAllocs compares a warm Vectors over maxTile+7 rows of A against
// the run bs with one over the same rows twice — whole tiles more — with the collector off, whose own mallocs would land in either count
// as the output grows.
func checkVectorsAllocs(t *testing.T, ex *feature.Extractor, bs []int32) {
	t.Helper()
	var once []record.Pair
	for a := 0; a < maxTile+7; a++ {
		for _, b := range bs {
			once = append(once, record.P(a, int(b)))
		}
	}
	twice := append(append([]record.Pair(nil), once...), once...)
	ex.Vectors(twice)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := testing.AllocsPerRun(3, func() { ex.Vectors(once) })
	if n := testing.AllocsPerRun(3, func() { ex.Vectors(twice) }); n != perCall {
		t.Errorf("a warm Vectors allocates %v times over %d rows of A and %v over each of them twice, want the same",
			perCall, maxTile+7, n)
	}
}

// FuzzColumnKernel scores random small token multisets: the input's bytes
// spell the rows of both tables over a six-word alphabet (a zero length is
// a missing value, a length of one a token-less one; two more draws make the
// 64- and 65-rune values on either side of the edit column's pattern limit,
// with a rune beyond the ASCII mask table in them, and one a value that
// repeats its tokens), table B of 70 to 78 rows, of odd or even length by
// the input's. Every feature of the first rows of A, whole and by
// position list, must equal the pair kernel; and Vectors over the cross
// product of all of A — two whole tiles of rows and part of a third — and B
// must equal ComputeScratch in every cell.
func FuzzColumnKernel(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{7})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{9, 0, 4, 9, 1, 8, 9, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		at := 0
		next := func() int {
			b := data[at%len(data)]
			at++
			return int(b) + at/len(data) // later passes over the input differ
		}
		word := func() string { return string(rune('a'+next()%6)) + "x" }
		value := func() string {
			n := next() % 10
			switch n {
			case 0:
				return ""
			case 1:
				return "…"
			case 7, 8: // 64 and 65 runes, one word
				rs := make([]rune, 57+n)
				for i := range rs {
					rs[i] = []rune("abcdeé")[next()%6]
				}
				return string(rs)
			case 9: // repeated tokens
				x, y := word(), word()
				return strings.Join([]string{x, y, x, x, y}, " ")
			}
			ws := make([]string, n-1)
			for i := range ws {
				ws[i] = word()
			}
			return strings.Join(ws, " ")
		}
		schema := record.Schema{{Name: "s", Type: record.AttrString}, {Name: "t", Type: record.AttrText}}
		few, a, b := record.NewTable("a", schema), record.NewTable("a", schema), record.NewTable("b", schema)
		for r := 0; r < 2*maxTile+1+len(data)%maxTile; r++ {
			row := record.Tuple{value(), value()}
			a.Append(row)
			if r < 5 {
				few.Append(row)
			}
		}
		for r := 0; r < 70+len(data)%9; r++ {
			b.Append(record.Tuple{value(), value()})
		}
		bs := allRows(b.Len())
		ex := feature.NewExtractor(&record.Dataset{Name: "fuzz", A: few, B: b, Truth: record.NewGroundTruth(nil)})
		all := make([]int, ex.NumFeatures())
		for i := range all {
			all[i] = i
		}
		checkColumns(t, "fuzz", ex, bs, all, 1)

		ex = feature.NewExtractor(&record.Dataset{Name: "fuzz", A: a, B: b, Truth: record.NewGroundTruth(nil)})
		var pairs []record.Pair
		for r := 0; r < a.Len(); r++ {
			for _, k := range bs {
				pairs = append(pairs, record.P(r, int(k)))
			}
		}
		s := similarity.NewScratch()
		for i, x := range ex.Vectors(pairs) {
			for f, got := range x {
				if want := ex.ComputeScratch(f, pairs[i], s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Vectors: %s of %v = %v, ComputeScratch %v", ex.Name(f), pairs[i], got, want)
				}
			}
		}
	})
}

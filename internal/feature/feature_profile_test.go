package feature_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/strutil"
	"github.com/corleone-em/corleone/internal/tree"
)

// These tests live outside package feature so they can drive the extractor
// the way its clients do — shard.Verifier imports feature — and everything
// they check is behind the exported API anyway.

// stringOracle is the string reference for the extractor: every feature
// recomputed from the raw attribute values with the string measures of
// package similarity, sharing nothing with the profiles — each call
// normalizes, tokenizes, and parses afresh, and the TF/IDF dictionaries are
// rebuilt from the normalized column strings.
type stringOracle struct {
	ex      *feature.Extractor
	corpora map[int]*similarity.Corpus // by attribute index
}

func newStringOracle(ex *feature.Extractor) *stringOracle {
	o := &stringOracle{ex: ex, corpora: map[int]*similarity.Corpus{}}
	for _, f := range ex.Features() {
		if f.Kind != "tfidf_cos" {
			continue
		}
		var docs []string
		for _, t := range []*record.Table{ex.A, ex.B} {
			for _, row := range t.Rows {
				docs = append(docs, strutil.Normalize(row[f.AttrIdx]))
			}
		}
		o.corpora[f.AttrIdx] = similarity.NewCorpus(docs)
	}
	return o
}

// compute evaluates feature i of pair p, keyed on the feature's Kind.
func (o *stringOracle) compute(t *testing.T, i int, p record.Pair) float64 {
	f := o.ex.Features()[i]
	a, b := o.ex.A.Rows[p.A][f.AttrIdx], o.ex.B.Rows[p.B][f.AttrIdx]
	switch f.Kind {
	case "exact":
		return similarity.ExactMatch(a, b)
	case "rel_diff", "abs_diff":
		x, okx := strutil.ParseNumeric(a)
		y, oky := strutil.ParseNumeric(b)
		if !okx || !oky {
			return feature.Missing
		}
		if f.Kind == "rel_diff" {
			return similarity.RelativeDiff(x, y)
		}
		return similarity.AbsDiff(x, y)
	}
	na, nb := strutil.Normalize(a), strutil.Normalize(b)
	if na == "" || nb == "" {
		return feature.Missing
	}
	switch f.Kind {
	case "jaro_winkler":
		return similarity.JaroWinkler(na, nb)
	case "edit":
		return similarity.EditSim(na, nb)
	case "jaccard_w":
		return similarity.JaccardWords(na, nb)
	case "jaccard_3g":
		return similarity.JaccardQGrams(na, nb)
	case "monge_elkan":
		return similarity.MongeElkan(na, nb)
	case "overlap_w":
		return similarity.OverlapWords(na, nb)
	case "tfidf_cos":
		return o.corpora[f.AttrIdx].Cosine(na, nb)
	}
	t.Fatalf("string oracle has no measure for kind %q (feature %s)", f.Kind, f.Name)
	return 0
}

// vector evaluates every feature of pair p.
func (o *stringOracle) vector(t *testing.T, p record.Pair) []float64 {
	v := make([]float64, o.ex.NumFeatures())
	for i := range v {
		v[i] = o.compute(t, i, p)
	}
	return v
}

// edgeDataset holds the values the integer views could mishandle: non-ASCII
// tokens and grams (ranks and packed grams must order as the strings do),
// the top of the 21-bit gram field, case and spacing variants that
// normalize together, repeated tokens, and empty, blank and
// punctuation-only values (a value with grams but no word tokens).
func edgeDataset() *record.Dataset {
	schema := record.Schema{
		{Name: "name", Type: record.AttrString},
		{Name: "desc", Type: record.AttrText},
		{Name: "price", Type: record.AttrNumeric},
		{Name: "code", Type: record.AttrCategorical},
	}
	a := record.NewTable("a", schema)
	b := record.NewTable("b", schema)
	a.Append(record.Tuple{"Zoë Müller-Lüdenscheidt", "naïve café crème brûlée", "1.234,5", "ÄÖ-7"})
	a.Append(record.Tuple{"日本語 テキスト", "日本語 の テキスト 日本語", "¥300", "語"})
	a.Append(record.Tuple{"!!!", "... --- ...", "n/a", "#"})
	a.Append(record.Tuple{"", "   ", "", ""})
	a.Append(record.Tuple{"a\U0010FFFFb \U0010FFFF", "the the the kit kit", "0", "##"})
	a.Append(record.Tuple{"o'neil & sons", "x", "-0", "a"})
	b.Append(record.Tuple{"zoe muller ludenscheidt", "NAÏVE  CAFÉ creme brulee", "1234.5", "äö-7"})
	b.Append(record.Tuple{"テキスト 日本語", "テキスト", "300", "语"})
	b.Append(record.Tuple{"???", "…", "-", "##"})
	b.Append(record.Tuple{" ", "", " ", " "})
	b.Append(record.Tuple{"a\U0010FFFEb \U0010FFFF \ufffd", "kit the", "0.0", "#a#"})
	b.Append(record.Tuple{"O\u2019Neil and Sons", "x x x", "+0", "A"})
	return &record.Dataset{Name: "edge", A: a, B: b, Truth: record.NewGroundTruth(nil)}
}

// TestProfilePathMatchesStringPath verifies that the extractor
// (Compute/ComputeScratch/Vector/Vectors) produces vectors bit-identical to
// the string oracle — on the handcrafted edge-case datasets and on
// realistic generated data from every synthetic dataset family.
func TestProfilePathMatchesStringPath(t *testing.T) {
	datasets := []*record.Dataset{
		testDataset(),
		edgeDataset(),
		datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.02)),
		datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.02)),
		datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.2)),
	}
	for _, ds := range datasets {
		ex := feature.NewExtractor(ds)
		oracle := newStringOracle(ex)
		rng := rand.New(rand.NewSource(3))
		var pairs []record.Pair
		if n := ds.A.Len() * ds.B.Len(); n <= 200 {
			for i := 0; i < n; i++ { // small tables: every pair
				pairs = append(pairs, record.P(i/ds.B.Len(), i%ds.B.Len()))
			}
		}
		for i := len(pairs); i < 200; i++ {
			pairs = append(pairs, record.P(rng.Intn(ds.A.Len()), rng.Intn(ds.B.Len())))
		}
		scratch := similarity.NewScratch()
		rows := ex.Vectors(pairs)
		for i, p := range pairs {
			want := oracle.vector(t, p)
			got := ex.Vector(p)
			gotScratch := ex.VectorScratch(p, scratch)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: Vector(%v)[%s] = %v, string oracle = %v",
						ds.Name, p, ex.Name(j), got[j], want[j])
				}
				if gotScratch[j] != want[j] {
					t.Fatalf("%s: VectorScratch(%v)[%s] = %v, string oracle = %v",
						ds.Name, p, ex.Name(j), gotScratch[j], want[j])
				}
				if rows[i][j] != want[j] {
					t.Fatalf("%s: Vectors row %d [%s] = %v, string oracle = %v",
						ds.Name, i, ex.Name(j), rows[i][j], want[j])
				}
			}
			for j := range want {
				if c := ex.Compute(j, p); c != want[j] {
					t.Fatalf("%s: Compute(%s, %v) = %v, string oracle = %v",
						ds.Name, ex.Name(j), p, c, want[j])
				}
				c, s := ex.ComputeScratch(j, p, scratch), want[j]
				if math.Float64bits(c) != math.Float64bits(s) {
					t.Fatalf("%s: ComputeScratch(%s, %v) = %v, string oracle = %v",
						ds.Name, ex.Name(j), p, c, s)
				}
			}
		}
	}
}

// TestProfilesIndependentOfParallelism pins the integer views to the data
// alone: vocabulary ranks come from sorting the column's token set, so an
// extractor built at any GOMAXPROCS — any par.For chunking — over a dataset
// regenerated from its recipe (what a remote shard worker does) carries
// profiles identical, field for field, to a serial build's. Index keys and
// every set measure compare these values across processes.
func TestProfilesIndependentOfParallelism(t *testing.T) {
	for _, name := range []string{"products", "citations", "restaurants"} {
		build := func(procs int) *feature.Extractor {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ds, err := datagen.DatasetFor(name, 0.02, 0)
			if err != nil {
				t.Fatal(err)
			}
			return feature.NewExtractor(ds)
		}
		serial := build(1)
		for _, procs := range []int{2, 4} {
			ex := build(procs)
			for i := 0; i < serial.NumFeatures(); i++ {
				wantA, wantB := serial.Profiles(i)
				gotA, gotB := ex.Profiles(i)
				if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotB, wantB) {
					t.Fatalf("%s: profiles of %s differ between GOMAXPROCS 1 and %d",
						name, serial.Name(i), procs)
				}
			}
		}
	}
}

// TestDuplicateValuesKeepRowDocumentFrequencies pins what profile dedupe
// must not change: a value held by three rows is three documents of the
// attribute's corpus. tfidf_cos must equal the cosine under a corpus of
// every row's value — and differ from the one a corpus of the distinct
// values would give, or this table would not tell the two apart.
func TestDuplicateValuesKeepRowDocumentFrequencies(t *testing.T) {
	schema := record.Schema{{Name: "desc", Type: record.AttrText}}
	a := record.NewTable("a", schema)
	b := record.NewTable("b", schema)
	for _, v := range []string{"memory kit", "memory kit", "memory kit", "zoom lens", "memory kit"} {
		a.Append(record.Tuple{v})
	}
	for _, v := range []string{"kit", "zoom lens case", "kit", "memory"} {
		b.Append(record.Tuple{v})
	}
	ds := &record.Dataset{Name: "dup", A: a, B: b, Truth: record.NewGroundTruth(nil)}
	ex := feature.NewExtractor(ds)
	profA, _ := ex.Profiles(0)
	if profA[0] != profA[1] || profA[0] != profA[4] || profA[0] == profA[3] {
		t.Fatal("rows holding one value do not share one profile")
	}
	var rows, distinct []string
	seen := map[string]bool{}
	for _, tab := range []*record.Table{a, b} {
		clear(seen)
		for _, row := range tab.Rows {
			rows = append(rows, row[0])
			if !seen[row[0]] {
				seen[row[0]] = true
				distinct = append(distinct, row[0])
			}
		}
	}
	byRows, byValues := similarity.NewCorpus(rows), similarity.NewCorpus(distinct)
	tfidf := -1
	for i, f := range ex.Features() {
		if f.Kind == "tfidf_cos" {
			tfidf = i
		}
	}
	differs := false
	for i := range a.Rows {
		for j := range b.Rows {
			got := ex.Compute(tfidf, record.P(i, j))
			if want := byRows.Cosine(a.Rows[i][0], b.Rows[j][0]); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("tfidf_cos(%q, %q) = %v, row-counted corpus gives %v", a.Rows[i][0], b.Rows[j][0], got, want)
			}
			differs = differs || got != byValues.Cosine(a.Rows[i][0], b.Rows[j][0])
		}
	}
	if !differs {
		t.Error("row-counted and value-counted corpora agree on every pair; the table cannot catch a dedupe of document frequencies")
	}
}

// TestMemoisedFeaturesMatchStringMeasures pins the write-once tables to the
// string measures: on the three dataset families, at sizes where their
// low-cardinality columns and Monge-Elkan token dictionaries get tables,
// every feature of every pair of A×B is Float64bits-equal to the string
// oracle — the first time it is asked for, while Vectors and a shard.Verifier
// scan fill the same extractor's tables concurrently (the race detector
// watches the cells), and the second time, when every tabled value is read
// back. A cell filled under a wrong index, a token table serving one
// direction for the other where they differ, or a racing store of different
// bits would each show up as one wrong bit.
func TestMemoisedFeaturesMatchStringMeasures(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
	}{{"restaurants", 0.3}, {"citations", 0.03}, {"products", 0.05}}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		ds, err := datagen.DatasetFor(c.name, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]record.Pair, 0, ds.A.Len()*ds.B.Len())
		for a := 0; a < ds.A.Len(); a++ {
			for b := 0; b < ds.B.Len(); b++ {
				pairs = append(pairs, record.P(a, b))
			}
		}
		oracle := newStringOracle(feature.NewExtractor(ds))
		nf := oracle.ex.NumFeatures()
		want := make([]float64, len(pairs)*nf)
		oracle.vector(t, pairs[0]) // an unknown kind fails here, on the test's goroutine
		par.For(len(pairs), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				copy(want[i*nf:], oracle.vector(t, pairs[i]))
			}
		})
		// One rule per feature, firing on Missing only: the scan evaluates a
		// pair's features in order until it meets a missing one — the lazy,
		// short-circuiting access pattern that fills tables in a real run.
		rules := make([]tree.Rule, nf)
		for f := range rules {
			rules[f] = tree.Rule{Preds: []tree.Predicate{{Feature: f, Op: tree.LE, Threshold: -0.5}}}
		}

		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ex := feature.NewExtractor(ds)
				var rows [][]float64
				survives := make([]bool, len(pairs))
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					rows = ex.Vectors(pairs)
				}()
				go func() {
					defer wg.Done()
					run, nb := ex.NewRun(nil), ds.B.Len()
					par.For(ds.A.Len(), func(lo, hi int) {
						v := shard.NewVerifier(ex, rules)
						for a := lo; a < hi; a++ {
							for _, p := range v.RowSurvivors(nil, int32(a), run, run.Positions()) {
								survives[a*nb+int(p.B)] = true
							}
						}
					})
				}()
				wg.Wait()
				scratch := similarity.NewScratch()
				for i, p := range pairs {
					missing := false
					for f, w := range want[i*nf : (i+1)*nf] {
						missing = missing || w <= -0.5
						if math.Float64bits(rows[i][f]) != math.Float64bits(w) {
							t.Fatalf("%s GOMAXPROCS %d: first touch of %s on %v = %v, string measure = %v",
								c.name, procs, ex.Name(f), p, rows[i][f], w)
						}
						if got := ex.ComputeScratch(f, p, scratch); math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("%s GOMAXPROCS %d: second touch of %s on %v = %v, string measure = %v",
								c.name, procs, ex.Name(f), p, got, w)
						}
					}
					if survives[i] == missing {
						t.Fatalf("%s GOMAXPROCS %d: Verifier.RowSurvivors keeps %v = %v, but a missing feature = %v",
							c.name, procs, p, survives[i], missing)
					}
				}
			}()
		}
	}
}

// TestVectorsNeverNaN pins the property ruleeval.CoverByLeaf rests on: a
// forest walk sends a NaN right while Rule.Matches fails it on both "<=" and
// ">", so "the row reaches the rule's leaf" equals "the rule matches" only on
// NaN-free rows. Every feature of every pair of the three datasets — and of
// the hand-written one whose B row is all empty fields — is an ordered
// number, with a missing input showing up as feature.Missing and nothing else.
func TestVectorsNeverNaN(t *testing.T) {
	sets := []*record.Dataset{testDataset()}
	for _, c := range []struct {
		name  string
		scale float64
	}{{"restaurants", 0.3}, {"citations", 0.03}, {"products", 0.05}} {
		ds, err := datagen.DatasetFor(c.name, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ds)
	}
	for _, ds := range sets {
		pairs := make([]record.Pair, 0, ds.A.Len()*ds.B.Len())
		for a := 0; a < ds.A.Len(); a++ {
			for b := 0; b < ds.B.Len(); b++ {
				pairs = append(pairs, record.P(a, b))
			}
		}
		ex := feature.NewExtractor(ds)
		missing := 0
		for i, v := range ex.Vectors(pairs) {
			for f, x := range v {
				if math.IsNaN(x) {
					t.Fatalf("%s: %s of pair %v is NaN", ds.Name, ex.Name(f), pairs[i])
				}
				if x == feature.Missing {
					missing++
				}
			}
		}
		if missing == 0 {
			t.Errorf("%s: no feature of any pair is Missing; the dataset does not exercise missing values", ds.Name)
		}
	}
}

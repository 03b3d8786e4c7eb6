package feature

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/strutil"
)

// stringOracle is the string reference for the extractor: every feature
// recomputed from the raw attribute values with the string measures of
// package similarity, sharing nothing with the profiles — each call
// normalizes, tokenizes, and parses afresh, and the TF/IDF dictionaries are
// rebuilt from the normalized column strings.
type stringOracle struct {
	ex      *Extractor
	corpora map[int]*similarity.Corpus // by attribute index
}

func newStringOracle(ex *Extractor) *stringOracle {
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
			return Missing
		}
		if f.Kind == "rel_diff" {
			return similarity.RelativeDiff(x, y)
		}
		return similarity.AbsDiff(x, y)
	}
	na, nb := strutil.Normalize(a), strutil.Normalize(b)
	if na == "" || nb == "" {
		return Missing
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
		ex := NewExtractor(ds)
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
		build := func(procs int) *Extractor {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ds, err := datagen.DatasetFor(name, 0.02, 0)
			if err != nil {
				t.Fatal(err)
			}
			return NewExtractor(ds)
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

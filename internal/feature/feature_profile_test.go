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
)

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

// TestProfilePathMatchesStringPath verifies that the profile-routed hot path
// (Compute/ComputeScratch/Vector/Vectors) produces vectors bit-identical to
// the retained string reference path (VectorString) — on the handcrafted
// edge-case datasets and on realistic generated data from every synthetic
// dataset family.
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
			want := ex.VectorString(p)
			got := ex.Vector(p)
			gotScratch := ex.VectorScratch(p, scratch)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: Vector(%v)[%s] = %v, string path = %v",
						ds.Name, p, ex.Name(j), got[j], want[j])
				}
				if gotScratch[j] != want[j] {
					t.Fatalf("%s: VectorScratch(%v)[%s] = %v, string path = %v",
						ds.Name, p, ex.Name(j), gotScratch[j], want[j])
				}
				if rows[i][j] != want[j] {
					t.Fatalf("%s: Vectors row %d [%s] = %v, string path = %v",
						ds.Name, i, ex.Name(j), rows[i][j], want[j])
				}
			}
			for j := range want {
				if c := ex.Compute(j, p); c != want[j] {
					t.Fatalf("%s: Compute(%s, %v) = %v, string path = %v",
						ds.Name, ex.Name(j), p, c, want[j])
				}
				c, s := ex.ComputeScratch(j, p, scratch), ex.ComputeString(j, p)
				if math.Float64bits(c) != math.Float64bits(s) {
					t.Fatalf("%s: ComputeScratch(%s, %v) = %v, ComputeString = %v",
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

package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
)

func benchPairs(ds *record.Dataset, n int) []record.Pair {
	rng := rand.New(rand.NewSource(7))
	pairs := make([]record.Pair, n)
	for i := range pairs {
		pairs[i] = record.P(rng.Intn(ds.A.Len()), rng.Intn(ds.B.Len()))
	}
	return pairs
}

var sinkRows [][]float64

// BenchmarkVectors measures the parallel vectorisation of a batch on the
// benchmark's three dataset shapes: all of Restaurants×1.0's A×B (what
// rest-match vectorises), and a 200k-pair seeded sample of Citations×0.1 and
// of Products×0.2 (the size of the blocker's sample S). Two cross products
// sit on either side of crossRun's rule (DESIGN.md §6 "Path choices"): all
// of Restaurants×0.1's 53×33 (a svc-journal job's C; runs of 33 rows, the
// list repeated 53 times, so the column kernels take it) and three rows of
// Citations×0.1 against all of B (the list comes back three times, under
// minReuse, so every pair is scored on its own). Every iteration builds its own
// extractor, so dictionary construction and the filling of the write-once
// tables are inside the figure, as they are inside a run.
func BenchmarkVectors(b *testing.B) {
	for _, c := range []struct {
		name    string
		dataset string
		scale   float64
		sample  int // 0: all of A×B
		rows    int // rows of A in the cross product; 0: all
	}{
		{"restaurants-full", "restaurants", 1.0, 0, 0},
		{"citations-sample", "citations", 0.1, 200000, 0},
		{"products-sample", "products", 0.2, 200000, 0},
		{"restaurants-0.1-full", "restaurants", 0.1, 0, 0},
		{"citations-3-rows", "citations", 0.1, 0, 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.DatasetFor(c.dataset, c.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			var pairs []record.Pair
			if c.sample > 0 {
				pairs = benchPairs(ds, c.sample)
			} else {
				na := ds.A.Len()
				if c.rows > 0 {
					na = c.rows
				}
				for i := 0; i < na; i++ {
					for j := 0; j < ds.B.Len(); j++ {
						pairs = append(pairs, record.P(i, j))
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRows = NewExtractor(ds).Vectors(pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/pair")
		})
	}
}

// BenchmarkNewExtractor measures the one-time profile construction cost that
// the per-pair arithmetic is paid for with, on the benchmark workloads'
// tables: Citations×0.15 (cit-index, where the build is the largest layer),
// Citations×0.1 (cit-scan), Products×0.2 (prod-learn) and Restaurants×1.0
// (rest-match). ns/row divides by the rows of both tables.
func BenchmarkNewExtractor(b *testing.B) {
	for _, c := range []struct {
		name    string
		dataset string
		scale   float64
	}{
		{"citations-0.15", "citations", 0.15},
		{"citations-0.1", "citations", 0.1},
		{"products-0.2", "products", 0.2},
		{"restaurants-1.0", "restaurants", 1.0},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.DatasetFor(c.dataset, c.scale, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := NewExtractor(ds)
				sinkRows = [][]float64{ex.Vector(record.P(0, 0))}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.A.Len()+ds.B.Len()), "ns/row")
		})
	}
}

// BenchmarkColumn measures the column kernels against the pair kernel at
// the list densities a run is asked for: every row of table A against every
// position, and every 16th, 64th and 256th position, of a run over all of
// table B — Citations×0.1 (1.68M pairs at density 1) and Restaurants×1.0
// (176k). The extractor is warm: each run's views are built, and each path
// runs once, before the clock starts. A density has up to three paths, and
// ns/position divides by the positions scored:
//   - column: Run.ColumnAt, whatever it picks — a set measure's or
//     Monge-Elkan's list under 1/16 of the run goes to the pair kernel
//     (sparseList), and Monge-Elkan's slab rule may send a longer one too;
//   - pairs: ComputeScratch position by position;
//   - walk (set measures only): the postings walk at every density.
//
// walk against pairs is the sparseList crossover (DESIGN.md §6 "Path
// choices"). title's three measures share a view, but each sub-benchmark
// walks it for itself: one feature per row defeats the shared walk.
func BenchmarkColumn(b *testing.B) {
	for _, c := range []struct {
		dataset string
		scale   float64
		names   []string
	}{
		{"citations", 0.1, []string{"title_jaccard_w", "title_overlap_w", "title_tfidf_cos",
			"authors_jaccard_3g", "authors_edit", "authors_monge_elkan"}},
		{"restaurants", 1.0, []string{"name_jaccard_3g", "name_monge_elkan", "addr_jaccard_3g", "addr_monge_elkan"}},
	} {
		ds, err := datagen.DatasetFor(c.dataset, c.scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		ex := NewExtractor(ds)
		na, nb := ds.A.Len(), ds.B.Len()
		run := ex.NewRun(nil)
		for _, name := range c.names {
			f := slices.Index(ex.Names(), name)
			if !run.HasColumn(f) {
				b.Fatalf("%s has no column over %d rows", name, nb)
			}
			ft, col := &ex.features[f], &ex.cols[ex.features[f].AttrIdx]
			view := viewOf(ft.Kind)
			paths := []string{"column", "pairs"}
			if view == viewWords || view == viewGrams {
				paths = append(paths, "walk")
			}
			for _, every := range []int{1, 16, 64, 256} {
				var pos []int32
				for k := 0; k < nb; k += every {
					pos = append(pos, int32(k))
				}
				for _, path := range paths {
					b.Run(fmt.Sprintf("%s/%s/1:%d/%s", c.dataset, name, every, path), func(b *testing.B) {
						rs := RunScratch{Pair: similarity.NewScratch()}
						dst := make([]float64, nb)
						v := &run.views[ft.AttrIdx*int(numViews)+int(view)]
						v.once.Do(func() { v.build(col, view, run.bs) })
						pass := func() {
							for a := int32(0); a < int32(na); a++ {
								pa := col.profA[a]
								ka := viewKeys(pa, view)
								switch {
								case path == "column":
									run.ColumnAt(f, a, pos, dst, &rs)
								case path == "walk" && pa.Norm != "" && len(ka) > 0:
									rs.walk(v, pa, ka)
									rs.finish(ft.Kind, v, pa, len(ka), pos, dst, 1)
								default:
									for _, k := range pos {
										dst[k] = ex.ComputeScratch(f, record.Pair{A: a, B: int32(k)}, rs.Pair)
									}
								}
							}
						}
						pass() // fills the token-pair table, whichever path runs first
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							pass()
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(na*len(pos)), "ns/position")
					})
				}
			}
		}
	}
}

// BenchmarkJaroTile is the sweep that set jaroTile: each jaro_winkler feature
// of Restaurants×1.0 against all of B, and Citations×0.1 authors against 300
// rows of B (a sample run's size), scored by tiles of T rows of A into an
// output laid out as Vectors lays it out — pairs a feature vector apart, tile
// rows a run apart — and, as T=0, by the pair kernel. The extractor is warm
// and neither column has a value-pair table.
func BenchmarkJaroTile(b *testing.B) {
	for _, c := range []struct {
		dataset string
		scale   float64
		nb      int // rows of B in the run, evenly spaced; 0: all
		names   []string
	}{
		{"restaurants", 1.0, 0, []string{"name_jaro_winkler", "addr_jaro_winkler", "phone_jaro_winkler"}},
		{"citations", 0.1, 300, []string{"authors_jaro_winkler"}},
	} {
		ds, err := datagen.DatasetFor(c.dataset, c.scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		ex := NewExtractor(ds)
		nb, na, d := ds.B.Len(), ds.A.Len(), ex.NumFeatures()
		if c.nb > 0 {
			nb = c.nb
		}
		for _, name := range c.names {
			f := slices.Index(ex.Names(), name)
			col := &ex.cols[ex.features[f].AttrIdx]
			pbs := make([]*similarity.Profile, nb)
			for k := range pbs {
				pbs[k] = col.profB[k*(ds.B.Len()/nb)]
			}
			for _, T := range []int{0, 8, 16, 32, 64} {
				b.Run(fmt.Sprintf("%s/T=%d", name, T), func(b *testing.B) {
					s := similarity.NewScratch()
					dst := make([]float64, max(T, 1)*nb*d)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if T == 0 {
							for a := 0; a < na; a++ {
								for k, pb := range pbs {
									dst[k*d+f] = ex.features[f].pfn(col.profA[a], pb, s)
								}
							}
							continue
						}
						for a := 0; a < na; a += T {
							as := col.profA[a:min(a+T, na)]
							for k, pb := range pbs {
								similarity.JaroWinklerTile(as, pb, dst[k*d+f:], nb*d, s)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(na*nb), "ns/pair")
				})
			}
		}
	}
}

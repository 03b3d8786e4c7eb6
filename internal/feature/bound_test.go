package feature_test

import (
	"fmt"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
)

// boundCovers checks BoundAt ≥ ColumnAt for every feature with a bound on
// attribute attr ("" for all) on every pair of the dataset — whole runs of
// all of table B, a row of A at a time — and returns, per feature, how many
// pairs' bounds are at most each θ of thetas.
func boundCovers(t *testing.T, name string, ds *record.Dataset, attr string, thetas map[string][]float64) map[string][]int {
	t.Helper()
	ex := feature.NewExtractor(ds)
	run := ex.NewRun(nil)
	decided := map[string][]int{}
	for f, ft := range ex.Features() {
		if !run.HasBound(f) || (attr != "" && ft.Attr != attr) {
			continue
		}
		n := make([]int, len(thetas[ft.Name]))
		counts := make([][]int, ds.A.Len())
		par.For(ds.A.Len(), func(lo, hi int) {
			rs := feature.RunScratch{Pair: similarity.NewScratch()}
			bound, exact := make([]float64, ds.B.Len()), make([]float64, ds.B.Len())
			for a := lo; a < hi; a++ {
				run.BoundAt(f, int32(a), run.Positions(), bound)
				run.ColumnAt(f, int32(a), run.Positions(), exact, &rs)
				counts[a] = make([]int, len(n))
				for k := range bound {
					if !(bound[k] >= exact[k]) {
						t.Errorf("%s: %s of (%d, %d): bound %v below %v", name, ft.Name, a, k, bound[k], exact[k])
						return
					}
					for i, theta := range thetas[ft.Name] {
						counts[a][i] += similarity.B2i(bound[k] <= theta)
					}
				}
			}
		})
		for _, c := range counts {
			for i := range c {
				n[i] += c[i]
			}
		}
		decided[ft.Name] = n
	}
	return decided
}

// TestBoundAtCoversColumnAt pins Run.BoundAt as a bound: at least ColumnAt,
// as float64, on every pair of the authors column of the three cit-scan
// instances (Citations×0.1 seeds 1, 2 and 6, 1.68M pairs each; -short keeps
// seed 6), and of every bounded feature on Citations×0.01 with the edge rows
// (missing values, 64 and 65 runes, runes past ASCII). It logs how much of
// each instance the bounds decide at the thresholds its selected rules put
// on authors (DESIGN.md §9.2).
func TestBoundAtCoversColumnAt(t *testing.T) {
	boundCovers(t, "citations×0.01+edge", withEdgeRows(datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))), "", nil)
	seeds := []int64{1, 2, 6}
	if testing.Short() {
		seeds = seeds[2:]
	}
	thetas := map[int64]map[string][]float64{ // the instances' selected rules' thresholds
		1: {"authors_jaro_winkler": {0.7589579297144526}},
		2: {"authors_edit": {0.47159090909090906}},
		6: {"authors_jaro_winkler": {0.7237581168831169}},
	}
	for _, seed := range seeds {
		p := datagen.Scaled(datagen.CitationsPaper, 0.1)
		p.Seed = datagen.CitationsPaper.Seed + seed
		ds := datagen.Generate(p)
		decided := boundCovers(t, fmt.Sprintf("Citations×0.1 #%d", seed), ds, "authors", thetas[seed])
		pairs := float64(ds.CartesianSize())
		for name, ths := range thetas[seed] {
			for i, theta := range ths {
				t.Logf("Citations×0.1 #%d: %s ≤ %.4g decided on %.1f%% of %.0f pairs", seed, name, theta, 100*float64(decided[name][i])/pairs, pairs)
			}
		}
	}
}

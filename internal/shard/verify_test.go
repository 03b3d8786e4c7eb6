package shard

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// randomRules draws a rule set the way the verifier's case analysis needs
// it: one to four rules of one to three predicates over a pool of five
// features (so rules share features, and a later rule meets values an
// earlier one computed for some positions only), both operators, and
// thresholds at, just above and just below a score some pair attains — or at
// and around Missing. The pool holds the features must names, the rest
// drawn.
func randomRules(rng *rand.Rand, ex *feature.Extractor, na, nb int, must []string) []tree.Rule {
	pool := rng.Perm(ex.NumFeatures())[:5]
	for i, name := range must {
		f := slices.Index(ex.Names(), name)
		if j := slices.Index(pool, f); j >= 0 {
			pool[i], pool[j] = pool[j], pool[i]
		} else {
			pool[i] = f
		}
	}
	rules := make([]tree.Rule, 1+rng.Intn(4))
	for i := range rules {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			f := pool[rng.Intn(len(pool))]
			thr := ex.Compute(f, record.P(rng.Intn(na), rng.Intn(nb)))
			switch rng.Intn(6) {
			case 0:
				thr = math.Nextafter(thr, math.Inf(1))
			case 1:
				thr = math.Nextafter(thr, math.Inf(-1))
			case 2:
				thr = feature.Missing
			case 3:
				thr = -0.5
			}
			rules[i].Preds = append(rules[i].Preds, tree.Predicate{Feature: f, Op: tree.Op(rng.Intn(2)), Threshold: thr})
		}
	}
	return rules
}

// newCountingVerifier returns a Verifier that keeps every feature's values
// for the row the way NewVerifier does for a feature two predicates read, so
// after a row the stamps say which cells it fetched (fetched counts them).
// Nothing else differs: a feature one predicate reads is fetched for the
// positions that reach the predicate either way, none of them stamped before.
func newCountingVerifier(ex *feature.Extractor, rules []tree.Rule) *Verifier {
	v := NewVerifier(ex, rules)
	v.shared = v.shared[:0]
	seen := make([]bool, ex.NumFeatures())
	for _, r := range rules {
		for _, p := range r.Preds {
			if !seen[p.Feature] {
				seen[p.Feature] = true
				v.shared = append(v.shared, p.Feature)
			}
		}
	}
	return v
}

// fetched adds to cells[f] how many of pos the row just verified fetched
// feature f for.
func (v *Verifier) fetched(pos []int32, cells []int) {
	for _, f := range v.shared {
		for _, k := range pos {
			cells[f] += similarity.B2i(v.stamp[f][k] == v.epoch)
		}
	}
}

// TestRowSurvivorsAtMatchesPairWalk is the verifier's differential test
// against the retired per-pair walk. On extractors of the three dataset
// families — the numeric columns doctored so rel_diff meets ±Inf and returns
// NaN, which fails "<=" and ">" alike — random rule sets are verified row by
// row through one Verifier per goroutine that alternates between three runs:
// all of table B, a random half of it, and 40 rows (shorter than a column
// kernel's minimum, so everything is computed pair by pair). Each row is
// asked for the whole run, for no position (a nil list, which is what
// simindex.Union returns when no probe keeps anything, and an empty one), one
// position, a sparse list and a dense one. The survivors must be pairWalk's,
// and so must the number of cells fetched per feature, read off a second
// verifier's stamps: for every measure but the set measures (whose walk
// scores a whole run at once) a fetched cell is one pair-kernel evaluation,
// so the column walk is exactly as lazy as the pair walk that bounds before
// it computes. GOMAXPROCS 1 and 4: at 4 the goroutines race to build the
// runs' views and the columns' bags. The citations-authors case always puts
// the two bounded measures of Citations' authors in the pool, and must see
// bounds decide pairs.
func TestRowSurvivorsAtMatchesPairWalk(t *testing.T) {
	for _, c := range []struct {
		name, profile string
		scale         float64
		trials        int
		must          []string
	}{
		{"citations", "citations", 0.03, 12, nil},
		{"citations-authors", "citations", 0.03, 12, []string{"authors_edit", "authors_jaro_winkler"}},
		{"products", "products", 0.04, 12, nil},
		{"restaurants", "restaurants", 0.4, 12, nil},
	} {
		ds, err := datagen.DatasetFor(c.profile, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		ex := feature.NewExtractor(ds)
		na, nb := ds.A.Len(), ds.B.Len()
		nans := 0
		for f, ft := range ex.Features() {
			if ft.Kind != "rel_diff" {
				continue
			}
			pa, pb := ex.Profiles(f)
			pa[1].Numeric, pa[1].NumericOK = math.Inf(1), true
			pb[2].Numeric, pb[2].NumericOK = math.Inf(-1), true
			pb[nb-1].Numeric, pb[nb-1].NumericOK = math.Inf(1), true
			if x := ex.Compute(f, record.P(1, 2)); !math.IsNaN(x) {
				t.Fatalf("%s: %s of +Inf against -Inf = %v, want NaN", c.name, ft.Name, x)
			}
			nans++
		}
		if nans == 0 && c.profile != "restaurants" {
			t.Fatalf("%s: no rel_diff feature to doctor", c.name)
		}
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		half := make([]int32, 0, nb)
		for b := 0; b < nb; b++ {
			if rng.Intn(2) == 0 || b == 2 || b == nb-1 {
				half = append(half, int32(b))
			}
		}
		runs := []*feature.Run{ex.NewRun(nil), ex.NewRun(half), ex.NewRun(half[len(half)-40:])}
		survivors, eliminated, decided := 0, 0, 0
		for trial := 0; trial < c.trials; trial++ {
			rules := randomRules(rng, ex, na, nb, c.must)
			if trial == 0 {
				rules = append(rules, tree.Rule{}) // no predicate: matches every pair
			}
			seed := rng.Int63()
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				par.For(na, func(lo, hi int) {
					rng := rand.New(rand.NewSource(seed + int64(lo)))
					v, vc, ref := NewVerifier(ex, rules), newCountingVerifier(ex, rules), newPairWalk(ex, rules)
					cells := make([]int, ex.NumFeatures())
					var got, counted, want []record.Pair
					for a := lo; a < hi; a++ {
						run := runs[(a+trial)%len(runs)]
						n := len(run.Rows())
						var sparse, dense []int32
						for k := 0; k < n; k++ {
							if rng.Intn(25) == 0 {
								sparse = append(sparse, int32(k))
							}
							if rng.Intn(3) > 0 {
								dense = append(dense, int32(k))
							}
						}
						for _, pos := range [][]int32{run.Positions(), nil, {}, {int32(rng.Intn(n))}, sparse, dense} {
							got = v.RowSurvivors(got[:0], int32(a), run, pos)
							counted = vc.RowSurvivors(counted[:0], int32(a), run, pos)
							vc.fetched(pos, cells)
							want = want[:0]
							for _, k := range pos {
								if p := (record.Pair{A: int32(a), B: run.Rows()[k]}); ref.Survives(p) {
									want = append(want, p)
								}
							}
							if !slices.Equal(got, want) || !slices.Equal(counted, want) {
								t.Errorf("%s trial %d GOMAXPROCS %d: row %d over %d of %d positions: RowSurvivors keeps %d pairs (%d with every feature stamped), the pair walk %d\nrules: %v",
									c.name, trial, procs, a, len(pos), n, len(got), len(counted), len(want), rules)
								return
							}
							if lo == 0 {
								survivors += len(got)
								eliminated += len(pos) - len(got)
							}
						}
					}
					if !slices.Equal(cells, ref.computed) {
						t.Errorf("%s trial %d GOMAXPROCS %d: cells fetched per feature %v, the pair walk computed %v\nrules: %v",
							c.name, trial, procs, cells, ref.computed, rules)
					}
					if ref.unsound > 0 {
						t.Errorf("%s trial %d GOMAXPROCS %d: %d pairs decided by a bound their value exceeds\nrules: %v",
							c.name, trial, procs, ref.unsound, rules)
					}
					if lo == 0 {
						decided += ref.decided
					}
				})
				runtime.GOMAXPROCS(prev)
			}
			if t.Failed() {
				return
			}
		}
		if survivors == 0 || eliminated == 0 {
			t.Errorf("%s: %d pairs survive and %d are eliminated over all trials: the rules exercise nothing", c.name, survivors, eliminated)
		}
		if c.must != nil && decided == 0 {
			t.Errorf("%s: no bound decided a predicate over all trials", c.name)
		}
	}
}

// TestVerifierEpochWrap drives the stamp epoch over its wrap: the row after
// it must not take a stamp written 2³² rows earlier for its own.
func TestVerifierEpochWrap(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))
	ex := feature.NewExtractor(ds)
	f := featureByKind(ex, "jaro_winkler")
	rules := []tree.Rule{
		{Preds: []tree.Predicate{{Feature: f, Op: tree.LE, Threshold: 0.5}}},
		{Preds: []tree.Predicate{{Feature: f, Op: tree.GT, Threshold: 0.8}}},
	}
	run := ex.NewRun(nil)
	v, ref := NewVerifier(ex, rules), newPairWalk(ex, rules)
	v.RowSurvivors(nil, 0, run, run.Positions()) // stamps every position with epoch 1
	v.epoch = math.MaxUint32                     // the next row wraps to 0, which size turns into 1
	for a := int32(1); a < 3; a++ {
		var want []record.Pair
		for _, b := range run.Rows() {
			if p := (record.Pair{A: a, B: b}); ref.Survives(p) {
				want = append(want, p)
			}
		}
		if got := v.RowSurvivors(nil, a, run, run.Positions()); !slices.Equal(got, want) {
			t.Fatalf("row %d after the epoch wrapped: %d survivors, want %d", a, len(got), len(want))
		}
	}
	if v.epoch != 2 {
		t.Fatalf("epoch %d after the wrap and one more row, want 2", v.epoch)
	}
}

// TestRowSurvivorsZeroAllocSteadyState pins the verifier's steady state: once
// a pass over every row of table A has sized its arrays and built the run's
// views and bags, another pass allocates nothing. One rule set bounds before
// it computes (an edit and a Jaro-Winkler predicate on authors behind a set
// predicate, the cit-scan shape); the other reads a feature from two rules,
// so its values are kept and stamped per row.
func TestRowSurvivorsZeroAllocSteadyState(t *testing.T) {
	ds, err := datagen.DatasetFor("citations", 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := feature.NewExtractor(ds)
	run := ex.NewRun(nil)
	feat := func(name string) int {
		f := slices.Index(ex.Names(), name)
		if f < 0 {
			t.Fatalf("no feature %s", name)
		}
		return f
	}
	le := func(name string, thr float64) tree.Predicate {
		return tree.Predicate{Feature: feat(name), Op: tree.LE, Threshold: thr}
	}
	if !run.HasBound(feat("authors_edit")) || !run.HasBound(feat("authors_jaro_winkler")) {
		t.Fatal("the authors edit and Jaro-Winkler features have no bound")
	}
	for _, c := range []struct {
		name  string
		rules []tree.Rule
	}{
		{"bounds", []tree.Rule{
			{Preds: []tree.Predicate{le("title_jaccard_w", 0.45), le("authors_jaro_winkler", 0.72), le("authors_edit", 0.47)}},
		}},
		{"stamps", []tree.Rule{
			{Preds: []tree.Predicate{le("title_jaccard_w", 0.45), le("authors_jaccard_3g", 0.3)}},
			{Preds: []tree.Predicate{le("title_jaccard_w", 0.6), le("title_tfidf_cos", 0.4)}},
		}},
	} {
		v := NewVerifier(ex, c.rules)
		if c.name == "stamps" && len(v.shared) == 0 {
			t.Fatalf("%s: no feature is read by two predicates", c.name)
		}
		var row []record.Pair
		pass := func() {
			for a := 0; a < ds.A.Len(); a++ {
				row = v.RowSurvivors(row[:0], int32(a), run, run.Positions())
			}
		}
		pass()
		if n := testing.AllocsPerRun(3, pass); n != 0 {
			t.Errorf("%s: a warm pass over table A allocates %v times, want 0", c.name, n)
		}
	}
}

package forest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/stats"
)

// trainSerialTrees is the pre-parallelization, pre-SoA reference
// implementation: one RNG, pointer trees grown one after another through
// growReference, each consuming the forest RNG directly. Train must produce
// exactly this forest for every seed.
func trainSerialTrees(X [][]float64, y []bool, cfg Config) []*refNode {
	cfg = cfg.withDefaults()
	nf := len(X[0])
	m := cfg.FeaturesPerSplit
	if m <= 0 {
		m = int(math.Log2(float64(nf))) + 1
	}
	if m > nf {
		m = nf
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bag := int(math.Ceil(cfg.BagFraction * float64(len(X))))
	if bag < 1 {
		bag = 1
	}
	trees := make([]*refNode, 0, cfg.NumTrees)
	for t := 0; t < cfg.NumTrees; t++ {
		treeRng := rand.New(rand.NewSource(rng.Int63()))
		idx := stats.SampleIndices(treeRng, len(X), bag)
		trees = append(trees, growReference(X, y, idx, refConfig{
			MaxDepth:         cfg.MaxDepth,
			MinLeaf:          cfg.MinLeaf,
			FeaturesPerSplit: m,
			Rand:             treeRng,
		}))
	}
	return trees
}

// trainSerial packs the reference trees into the SoA layout, so the whole
// Forest — node arrays, spans, lookup tables, config — can be compared
// structurally against the shipping Train.
func trainSerial(X [][]float64, y []bool, cfg Config) *Forest {
	return fromTrees(trainSerialTrees(X, y, cfg), cfg.withDefaults())
}

func randomTraining(seed int64, n, nf int) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		X[i] = make([]float64, nf)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		// Label correlates with the first feature so trees have signal.
		y[i] = X[i][0]+0.2*rng.Float64() > 0.6
	}
	return X, y
}

// atGOMAXPROCS runs fn as a subtest pinned to n scheduler threads, so the
// deterministic-parallelism contracts are checked both on the inline path
// (GOMAXPROCS=1) and with real goroutine fan-out.
func atGOMAXPROCS(t *testing.T, n int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("gomaxprocs=%d", n), func(t *testing.T) {
		old := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
		fn(t)
	})
}

// TestTrainParallelMatchesSerial pins the deterministic-parallelism contract:
// for any seed and any GOMAXPROCS, the concurrently grown SoA forest is
// identical — every node array, span, and table — to the serial pointer-tree
// reference flattened into the same layout.
func TestTrainParallelMatchesSerial(t *testing.T) {
	X, y := randomTraining(9, 300, 8)
	for _, procs := range []int{1, 4} {
		atGOMAXPROCS(t, procs, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 17, 123} {
				cfg := Defaults()
				cfg.Seed = seed
				got := Train(X, y, cfg)
				want := trainSerial(X, y, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: parallel Train differs from serial reference", seed)
				}
			}
			// Also with non-default tree counts, depth and leaf bounds and
			// split widths.
			for _, cfg := range []Config{
				{NumTrees: 23, BagFraction: 0.5, MaxDepth: 4, Seed: 5},
				{MinLeaf: 5, FeaturesPerSplit: 2, Seed: 7},
			} {
				if !reflect.DeepEqual(Train(X, y, cfg), trainSerial(X, y, cfg)) {
					t.Errorf("parallel Train differs from serial reference (%+v)", cfg)
				}
			}
		})
	}
}

// referenceScores computes per-vector positive fraction, entropy, and
// confidence by walking the reference pointer trees one vector at a time —
// the pre-SoA scoring semantics, transcendentals and all.
func referenceScores(trees []*refNode, v []float64) (frac, ent, conf float64) {
	pos := 0
	for _, tr := range trees {
		if tr.predict(v) {
			pos++
		}
	}
	frac = float64(pos) / float64(len(trees))
	ent = EntropyOf(frac)
	return frac, ent, 1 - ent
}

// withSpecials overwrites about one value in five of X with the values a
// comparison that is not the plain float "v <= thr" gets wrong: the
// feature.Missing sentinel -1 (in training data it puts thresholds below
// zero), negative fractions, -0.0 and -Inf, next to +0.0 and +Inf, plus,
// when nans is set, NaNs of either sign.
func withSpecials(seed int64, X [][]float64, nans bool) [][]float64 {
	specials := []float64{-1, -1, -1, -0.25, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		-math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	if nans {
		specials = append(specials, math.NaN(), math.Float64frombits(^uint64(0)))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, row := range X {
		for j := range row {
			if rng.Intn(5) == 0 {
				row[j] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return X
}

// thresholdStumps is a hand-built forest of one-split trees on the edge
// thresholds: the negatives a column holding feature.Missing gives ordinary
// training (-1, -0.5), and -0.0, ±Inf and NaN, which only Load of an edited
// model file could bring.
func thresholdStumps(nf int) []*refNode {
	var trees []*refNode
	for i, thr := range []float64{-1, -0.5, math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		math.NaN(), -math.SmallestNonzeroFloat64, 0.5} {
		trees = append(trees, &refNode{
			Feature: i % nf, Threshold: thr, Pos: 1, Neg: 1,
			Left:  &refNode{Feature: -1, Label: true, Pos: 1},
			Right: &refNode{Feature: -1, Neg: 1},
		})
	}
	return trees
}

// realPool vectorises a datagen instance as a run does. The pool is every
// true match plus a strided sample of at most 20,000 pairs of A×B; the
// training set is the matches and every 20th row of the rest, labeled by
// the ground truth with one answer in twenty flipped, as a noisy crowd
// returns them. That gives feature.Missing at the density real candidates
// carry it and — because noisy labels keep the trees splitting — the
// negative midpoints it puts into trained forests.
func realPool(name string, scale float64) (V, X [][]float64, y []bool) {
	ds, err := datagen.DatasetFor(name, scale, 0)
	if err != nil {
		panic(err)
	}
	na, nb := ds.A.Len(), ds.B.Len()
	stride := (na*nb + 19999) / 20000
	pairs := ds.Truth.Matches()
	matches := len(pairs)
	for i := 0; i < na*nb; i += stride {
		pairs = append(pairs, record.P(i/nb, i%nb))
	}
	V = feature.NewExtractor(ds).Vectors(pairs)
	rng := rand.New(rand.NewSource(1))
	for i, v := range V {
		if i < matches || i%20 == 0 {
			X = append(X, v)
			y = append(y, ds.Truth.Match(pairs[i]) != (rng.Intn(20) == 0))
		}
	}
	return V, X, y
}

// TestScoringParallelMatchesSerial pins every scoring entry point — the
// per-vector PosFraction/Entropy and the Scorer's
// ConfidencesInto/MeanConfidence — bit-identical to
// per-vector pointer-tree scoring, across GOMAXPROCS: on similarity-like
// values in [0, 1); on vectors and trained thresholds full of -1, -0.0,
// ±Inf and NaN; on hand-built negative, infinite and NaN thresholds; and on
// a vectorised Restaurants instance, the traffic runs actually score.
func TestScoringParallelMatchesSerial(t *testing.T) {
	X, y := randomTraining(4, 200, 6)
	V, _ := randomTraining(8, 500, 6)
	Xs, ys := randomTraining(5, 300, 6)
	Vs, _ := randomTraining(9, 1500, 6)
	withSpecials(1, Xs, false)
	withSpecials(2, Vs[:600], false)
	withSpecials(3, Vs[600:], true)
	Vr, Xr, yr := realPool("restaurants", 0.3)
	cfg := Defaults()
	cases := []struct {
		name     string
		refTrees []*refNode
		train    func() *Forest
		V        [][]float64
	}{
		{"unit-interval", trainSerialTrees(X, y, cfg), func() *Forest { return Train(X, y, cfg) }, V},
		{"specials", trainSerialTrees(Xs, ys, cfg), func() *Forest { return Train(Xs, ys, cfg) }, Vs},
		{"threshold-stumps", thresholdStumps(6), func() *Forest { return fromTrees(thresholdStumps(6), cfg) }, Vs},
		{"restaurants", trainSerialTrees(Xr, yr, cfg), func() *Forest { return Train(Xr, yr, cfg) }, Vr},
	}
	// Every case but unit-interval is there for its negative thresholds.
	for _, c := range cases[1:] {
		negative := false
		for _, thr := range c.train().threshold {
			negative = negative || thr < 0
		}
		if !negative {
			t.Fatalf("%s: no negative threshold in the forest; the case is vacuous", c.name)
		}
	}

	for _, procs := range []int{1, 4} {
		atGOMAXPROCS(t, procs, func(t *testing.T) {
			sc := NewScorer()
			for _, c := range cases {
				refTrees, V := c.refTrees, c.V
				f := c.train()
				confs := sc.ConfidencesInto(f, V, make([]float64, len(V)))
				sum := 0.0
				for i, v := range V {
					frac, ent, conf := referenceScores(refTrees, v)
					if got := f.PosFraction(v); got != frac {
						t.Fatalf("%s: PosFraction[%d] = %v, reference = %v", c.name, i, got, frac)
					}
					if confs[i] != conf {
						t.Fatalf("%s: confidence[%d] of %v: scorer %v, reference %v", c.name, i, v, confs[i], conf)
					}
					if got := f.Entropy(v); got != ent {
						t.Fatalf("%s: Entropy[%d] = %v, reference = %v", c.name, i, got, ent)
					}
					sum += conf
				}
				want := sum / float64(len(V))
				if got := sc.MeanConfidence(f, V); got != want {
					t.Errorf("%s: Scorer.MeanConfidence = %v, serial in-order sum = %v", c.name, got, want)
				}
			}
			if got := sc.MeanConfidence(Train(X, y, cfg), nil); got != 1 {
				t.Errorf("MeanConfidence(nil) = %v, want 1", got)
			}
		})
	}
}

// TestScorerZeroAllocSteadyState pins the active-learning hot path: once a
// Scorer's buffers have grown, re-scoring a pool allocates nothing. par.For
// only hands out goroutines above GOMAXPROCS 1, so the assertion runs on
// the inline path — the 1-core steady state the box actually executes.
func TestScorerZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	X, y := randomTraining(4, 200, 6)
	f := Train(X, y, Defaults())
	V, _ := randomTraining(8, 1000, 6)
	sc := NewScorer()
	dst := make([]float64, len(V))
	sc.ConfidencesInto(f, V, dst) // warm the buffers
	sc.MeanConfidence(f, V)
	if allocs := testing.AllocsPerRun(100, func() {
		sc.ConfidencesInto(f, V, dst)
	}); allocs != 0 {
		t.Errorf("ConfidencesInto steady state allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sinkFloat = sc.MeanConfidence(f, V)
	}); allocs != 0 {
		t.Errorf("MeanConfidence steady state allocates %.1f per op, want 0", allocs)
	}
}

// TestTrainBytesPerTree pins Train's per-tree allocation to the tree it
// emits: a chunk's grower reseeds one RNG per tree instead of allocating a
// 4.9 KB rand source each time. On a training set whose trees are a handful
// of nodes, 64 more trees may cost well under a source per tree.
func TestTrainBytesPerTree(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	X, y := randomTraining(5, 8, 3)
	bytesOf := func(trees int) uint64 {
		cfg := Defaults()
		cfg.NumTrees = trees
		Train(X, y, cfg) // warm
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Train(X, y, cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	few, many := bytesOf(8), bytesOf(72)
	if perTree := (float64(many) - float64(few)) / 64; perTree > 2048 {
		t.Errorf("Train allocates %.0f B per extra tree (%d B at 8 trees, %d B at 72), want under 2 KiB", perTree, few, many)
	}
}

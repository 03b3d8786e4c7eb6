package forest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/corleone-em/corleone/internal/stats"
	"github.com/corleone-em/corleone/internal/tree"
)

// trainSerialTrees is the pre-parallelization, pre-SoA reference
// implementation: one RNG, pointer trees grown one after another through
// growReference, each consuming the forest RNG directly. Train must produce
// exactly this forest for every seed.
func trainSerialTrees(X [][]float64, y []bool, cfg Config) []*tree.Tree {
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
	trees := make([]*tree.Tree, 0, cfg.NumTrees)
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
			// Also with non-default tree counts and depth bounds.
			cfg := Config{NumTrees: 23, BagFraction: 0.5, MaxDepth: 4, Seed: 5}
			if !reflect.DeepEqual(Train(X, y, cfg), trainSerial(X, y, cfg)) {
				t.Error("parallel Train differs from serial reference (custom config)")
			}
		})
	}
}

// referenceScores computes per-vector positive fraction, entropy, and
// confidence by walking the retained pointer trees one vector at a time —
// the pre-SoA scoring semantics, transcendentals and all.
func referenceScores(trees []*tree.Tree, v []float64) (frac, ent, conf float64) {
	pos := 0
	for _, tr := range trees {
		if tr.Predict(v) {
			pos++
		}
	}
	frac = float64(pos) / float64(len(trees))
	ent = EntropyOf(frac)
	return frac, ent, 1 - ent
}

// TestScoringParallelMatchesSerial pins the batched SoA scoring path —
// Confidences/Entropies/MeanConfidence and the Scorer it delegates to —
// bit-identical to per-vector pointer-tree scoring, across GOMAXPROCS.
func TestScoringParallelMatchesSerial(t *testing.T) {
	X, y := randomTraining(4, 200, 6)
	cfg := Defaults()
	refTrees := trainSerialTrees(X, y, cfg)
	V, _ := randomTraining(8, 500, 6)

	for _, procs := range []int{1, 4} {
		atGOMAXPROCS(t, procs, func(t *testing.T) {
			f := Train(X, y, cfg)
			confs := f.Confidences(V)
			ents := f.Entropies(V)
			sc := NewScorer()
			confs2 := sc.ConfidencesInto(f, V, make([]float64, len(V)))
			ents2 := sc.EntropiesInto(f, V, make([]float64, len(V)))
			sum := 0.0
			for i, v := range V {
				frac, ent, conf := referenceScores(refTrees, v)
				if got := f.PosFraction(v); got != frac {
					t.Fatalf("PosFraction[%d] = %v, reference = %v", i, got, frac)
				}
				if confs[i] != conf || confs2[i] != conf || f.Confidence(v) != conf {
					t.Fatalf("confidence[%d]: batched %v / scorer %v / single %v, reference %v",
						i, confs[i], confs2[i], f.Confidence(v), conf)
				}
				if ents[i] != ent || ents2[i] != ent || f.Entropy(v) != ent {
					t.Fatalf("entropy[%d]: batched %v / scorer %v / single %v, reference %v",
						i, ents[i], ents2[i], f.Entropy(v), ent)
				}
				sum += conf
			}
			want := sum / float64(len(V))
			if got := f.MeanConfidence(V); got != want {
				t.Errorf("MeanConfidence = %v, serial in-order sum = %v", got, want)
			}
			if got := sc.MeanConfidence(f, V); got != want {
				t.Errorf("Scorer.MeanConfidence = %v, serial in-order sum = %v", got, want)
			}
			if got := f.MeanConfidence(nil); got != 1 {
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
		sc.EntropiesInto(f, V, dst)
	}); allocs != 0 {
		t.Errorf("EntropiesInto steady state allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sinkFloat = sc.MeanConfidence(f, V)
	}); allocs != 0 {
		t.Errorf("MeanConfidence steady state allocates %.1f per op, want 0", allocs)
	}
}

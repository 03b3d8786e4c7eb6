// Package forest implements the random-forest matcher of §5.1: k decision
// trees trained independently, each on a random 60% portion of the training
// data with m = log2(n)+1 random features per split, combined by majority
// vote. It also provides the prediction entropy/confidence of Eq. 1 that
// drives active learning, and extraction of deduplicated positive and
// negative rules across trees (§4.1, §7).
//
// The trained forest lives in a structure-of-arrays layout, the only tree
// form: every tree's nodes are flat feature/threshold/left/right/label
// slices packed contiguously across trees (soa.go), so scoring walks dense
// arrays instead of chasing per-node heap pointers. One walk (posCount)
// scores a vector for every entry point, and a Scorer fans it out over a
// pool of vectors with reused buffers; LeavesInto is the same loop
// reporting the leaves. Train grows trees directly into that layout with
// per-goroutine scratch (grow.go), bit-identical to the pointer-tree CART
// reference the tests keep, and Load packs saved nodes into it.
package forest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/stats"
	"github.com/corleone-em/corleone/internal/tree"
)

// Config carries the paper's random-forest hyperparameters.
type Config struct {
	// NumTrees is k; the paper (and Weka's default) uses 10.
	NumTrees int
	// BagFraction is the random portion of training data per tree
	// (paper: 60%), sampled without replacement.
	BagFraction float64
	// FeaturesPerSplit is m; 0 means the paper's default log2(n)+1.
	FeaturesPerSplit int
	// MinLeaf is the minimum examples per leaf (default 1, Weka's default).
	MinLeaf int
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// Seed makes training deterministic.
	Seed int64
}

// Defaults returns the paper's configuration.
func Defaults() Config {
	return Config{NumTrees: 10, BagFraction: 0.6, MinLeaf: 1, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.NumTrees <= 0 {
		c.NumTrees = d.NumTrees
	}
	if c.BagFraction <= 0 || c.BagFraction > 1 {
		c.BagFraction = d.BagFraction
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = d.MinLeaf
	}
	return c
}

// Forest is a trained random forest in the packed SoA layout of soa.go.
type Forest struct {
	cfg Config
	soa
}

// NumTrees returns k, the number of component trees.
func (f *Forest) NumTrees() int { return len(f.roots) }

// Train grows a forest on feature matrix X and labels y. It panics if X is
// empty or ragged — the callers (active learning, blocker) always supply at
// least the four seed examples.
func Train(X [][]float64, y []bool, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	if len(X) == 0 {
		panic("forest: empty training set")
	}
	if len(X) != len(y) {
		panic(fmt.Sprintf("forest: %d vectors but %d labels", len(X), len(y)))
	}
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
	// Per-tree seeds are drawn serially up front from the forest RNG — the
	// t-th tree gets the t-th Int63, exactly as the serial loop did — so the
	// trees can then grow concurrently (each on its own RNG, written to its
	// own slot) while the grown forest stays bit-identical to the serial
	// output for a given cfg.Seed.
	seeds := make([]int64, cfg.NumTrees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	// Each par chunk owns one grower — RNG, bootstrap buffer, feature marks,
	// sort and partition scratch — reused across its trees, so goroutines
	// do meaningfully independent work: no shared mutable state, and near
	// zero allocation past the emitted trees themselves (the old path
	// allocated fresh index slices and sort closures at every node, which
	// serialized concurrent growth on the allocator). Reseeding the chunk's
	// RNG with Rand.Seed gives tree t the stream rand.NewSource(seeds[t])
	// would, without a 4.9 KB source per tree.
	parts := make([]soaTree, cfg.NumTrees)
	par.For(cfg.NumTrees, func(lo, hi int) {
		g := newGrower(X, y, m, cfg.MinLeaf, cfg.MaxDepth)
		g.rng = rand.New(rand.NewSource(0))
		for t := lo; t < hi; t++ {
			g.rng.Seed(seeds[t])
			idx := stats.SampleIndicesInto(g.rng, len(X), bag, g.sample)
			parts[t] = g.growTree(idx)
		}
	})
	return pack(cfg, parts)
}

// posCount walks every tree and counts "match" votes for v.
func (f *Forest) posCount(v []float64) int {
	feature, threshold := f.feature, f.threshold
	left, right, label := f.left, f.right, f.label
	pos := 0
	for _, root := range f.roots {
		n := root
		for feature[n] >= 0 {
			if v[feature[n]] <= threshold[n] {
				n = left[n]
			} else {
				n = right[n]
			}
		}
		if label[n] {
			pos++
		}
	}
	return pos
}

// PosFraction returns P+(e): the fraction of trees voting "match" on v.
func (f *Forest) PosFraction(v []float64) float64 {
	return float64(f.posCount(v)) / float64(len(f.roots))
}

// Predict returns the majority vote (ties go to "no match", the safe
// default under EM's skew).
func (f *Forest) Predict(v []float64) bool {
	return f.PosFraction(v) > 0.5
}

// Entropy computes Eq. 1: -[P+ ln P+ + P- ln P-], the disagreement of the
// component trees on example v. It ranges over [0, ln 2]. Only k+1 vote
// fractions exist, so the value comes from the precomputed table — built
// with the exact EntropyOf(PosFraction) expression, hence bit-identical.
func (f *Forest) Entropy(v []float64) float64 {
	return f.entTab[f.posCount(v)]
}

// EntropyOf computes Eq. 1 from a positive-vote fraction.
func EntropyOf(pPos float64) float64 {
	h := 0.0
	if pPos > 0 {
		h -= pPos * math.Log(pPos)
	}
	if pNeg := 1 - pPos; pNeg > 0 {
		h -= pNeg * math.Log(pNeg)
	}
	return h
}

// Rules extracts every decision rule from every tree, deduplicated by
// logical content, split into negative (blocking/reduction candidates) and
// positive rules. Within each polarity, rules keep first-seen order, which
// is deterministic given the training seed.
func (f *Forest) Rules() (negative, positive []tree.Rule) {
	negative, positive, _, _ = f.RuleLeaves()
	return negative, positive
}

// RuleLeaves is Rules plus where each rule was read: negLeaf[i] (posLeaf[i])
// is the packed node index of the leaf whose root path is negative[i]
// (positive[i]). A later leaf with the same Key() — the key rounds
// thresholds to nine digits, so its path may differ in the tenth — has no
// entry: the rule kept is the first-seen leaf's, and so is its leaf.
func (f *Forest) RuleLeaves() (negative, positive []tree.Rule, negLeaf, posLeaf []int32) {
	seen := map[string]bool{}
	for t := range f.roots {
		f.treeRules(t, func(r tree.Rule, leaf int32) {
			// A rule with no predicates (single-leaf tree) covers
			// everything and carries no information; skip it.
			if len(r.Preds) == 0 {
				return
			}
			k := r.Key()
			if seen[k] {
				return
			}
			seen[k] = true
			if r.Positive {
				positive, posLeaf = append(positive, r), append(posLeaf, leaf)
			} else {
				negative, negLeaf = append(negative, r), append(negLeaf, leaf)
			}
		})
	}
	return negative, positive, negLeaf, posLeaf
}

// NumNodes returns the packed node count, the bound of every leaf index.
func (f *Forest) NumNodes() int { return len(f.feature) }

// LeafMatch reports whether the leaf at packed index n votes "match".
func (f *Forest) LeafMatch(n int32) bool { return f.label[n] }

// LeavesInto writes the packed index of the leaf each vector of V reaches in
// each tree, dst[i*NumTrees()+t] for vector i and tree t. The comparison is
// posCount's: a NaN feature fails "<=" and goes right.
func (f *Forest) LeavesInto(V [][]float64, dst []int32) {
	feature, threshold := f.feature, f.threshold
	left, right := f.left, f.right
	k := len(f.roots)
	for i, v := range V {
		for t, n := range f.roots {
			for feature[n] >= 0 {
				if v[feature[n]] <= threshold[n] {
					n = left[n]
				} else {
					n = right[n]
				}
			}
			dst[i*k+t] = n
		}
	}
}

// treeRules walks tree t root-to-leaf and emits each path as a rule with
// its leaf's packed index, left subtree first, each rule's predicates in
// path order from the root.
func (f *Forest) treeRules(t int, emit func(tree.Rule, int32)) {
	var path []tree.Predicate
	var walk func(n int32)
	walk = func(n int32) {
		if f.feature[n] < 0 {
			preds := make([]tree.Predicate, len(path))
			copy(preds, path)
			emit(tree.Rule{
				Preds:    preds,
				Positive: f.label[n],
				LeafPos:  int(f.pos[n]),
				LeafNeg:  int(f.neg[n]),
			}, n)
			return
		}
		path = append(path, tree.Predicate{
			Feature:   int(f.feature[n]),
			Op:        tree.LE,
			Threshold: f.threshold[n],
		})
		walk(f.left[n])
		path[len(path)-1].Op = tree.GT
		walk(f.right[n])
		path = path[:len(path)-1]
	}
	walk(f.roots[t])
}

// String renders all trees with the given feature-name resolver, in the
// indented style of the paper's Figure 2.
func (f *Forest) String(name func(int) string) string {
	var b strings.Builder
	for t := range f.roots {
		fmt.Fprintf(&b, "Tree %d:\n", t+1)
		f.renderNode(&b, f.roots[t], name, 0)
	}
	return b.String()
}

func (f *Forest) renderNode(b *strings.Builder, n int32, name func(int) string, depth int) {
	indent := strings.Repeat("  ", depth)
	if f.feature[n] < 0 {
		lbl := "No"
		if f.label[n] {
			lbl = "Yes"
		}
		fmt.Fprintf(b, "%s-> %s (%d+/%d-)\n", indent, lbl, f.pos[n], f.neg[n])
		return
	}
	fmt.Fprintf(b, "%s[%s <= %.4g]\n", indent, name(int(f.feature[n])), f.threshold[n])
	f.renderNode(b, f.left[n], name, depth+1)
	f.renderNode(b, f.right[n], name, depth+1)
}

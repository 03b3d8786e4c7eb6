package forest

import (
	"math"
	"math/rand"
	"sort"
)

// The pre-SoA reference grower: the classic pointer-tree CART (Gini
// impurity, each split chosen from a random subset of features) that
// shipped before grow.go. For a given RNG, grower (grow.go) must consume
// exactly the same draw sequence and produce exactly the same tree; the
// equivalence tests pin that for every seed they try. The pointer tree it
// grows exists only here: flattenTree packs it into the shipping layout.

// refNode is one pointer-tree node. Leaves have Feature == -1.
type refNode struct {
	// Feature is the feature index tested at an internal node, -1 at a leaf.
	Feature int
	// Threshold routes vectors: value <= Threshold goes Left, else Right.
	Threshold   float64
	Left, Right *refNode
	// Label is the leaf prediction (true = match).
	Label bool
	// Pos and Neg are the training example counts that reached this node.
	Pos, Neg int
}

func (n *refNode) isLeaf() bool { return n.Feature < 0 }

// predict routes v down the tree rooted at n and returns the leaf label.
func (n *refNode) predict(v []float64) bool {
	for !n.isLeaf() {
		if v[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// flattenTree lays a pointer tree out in pre-order — the same emission
// order the grower uses — so a flattened reference tree is structurally
// identical to a directly grown one.
func flattenTree(root *refNode) soaTree {
	var st soaTree
	var walk func(n *refNode) int32
	walk = func(n *refNode) int32 {
		id := st.emit()
		st.pos[id] = int32(n.Pos)
		st.neg[id] = int32(n.Neg)
		if n.isLeaf() {
			st.feature[id] = -1
			st.label[id] = n.Label
			return id
		}
		st.feature[id] = int32(n.Feature)
		st.threshold[id] = n.Threshold
		l := walk(n.Left)
		r := walk(n.Right)
		st.left[id], st.right[id] = l, r
		return id
	}
	walk(root)
	return st
}

// fromTrees packs pointer trees into a forest.
func fromTrees(trees []*refNode, cfg Config) *Forest {
	parts := make([]soaTree, len(trees))
	for i, t := range trees {
		parts[i] = flattenTree(t)
	}
	return pack(cfg, parts)
}

// refConfig controls reference tree growth.
type refConfig struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of training examples per leaf
	// (default 1).
	MinLeaf int
	// FeaturesPerSplit is the paper's m = log2(n)+1 random features
	// considered at each node; 0 means all features.
	FeaturesPerSplit int
	// Rand drives the per-node feature subsampling. Must be non-nil when
	// FeaturesPerSplit > 0.
	Rand *rand.Rand
}

// growReference trains a tree on the rows of X selected by idx (labels in y). X rows
// are feature vectors; idx lets the forest pass bootstrap samples without
// copying. If idx is nil, all rows are used.
func growReference(X [][]float64, y []bool, idx []int, cfg refConfig) *refNode {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if idx == nil {
		idx = make([]int, len(X))
		for i := range idx {
			idx[i] = i
		}
	}
	own := make([]int, len(idx))
	copy(own, idx)
	g := &refGrower{X: X, y: y, cfg: cfg}
	return g.grow(own, 0)
}

type refGrower struct {
	X   [][]float64
	y   []bool
	cfg refConfig
}

func (g *refGrower) counts(idx []int) (pos, neg int) {
	for _, i := range idx {
		if g.y[i] {
			pos++
		} else {
			neg++
		}
	}
	return
}

func (g *refGrower) grow(idx []int, depth int) *refNode {
	pos, neg := g.counts(idx)
	leaf := func() *refNode {
		return &refNode{Feature: -1, Label: pos > neg, Pos: pos, Neg: neg}
	}
	if pos == 0 || neg == 0 || len(idx) < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return leaf()
	}
	feat, thr, ok := g.bestSplit(idx, pos, neg)
	if !ok {
		return leaf()
	}
	var left, right []int
	for _, i := range idx {
		if g.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.cfg.MinLeaf || len(right) < g.cfg.MinLeaf {
		return leaf()
	}
	return &refNode{
		Feature:   feat,
		Threshold: thr,
		Left:      g.grow(left, depth+1),
		Right:     g.grow(right, depth+1),
		Pos:       pos,
		Neg:       neg,
	}
}

// bestSplit searches a random subset of features for the split with the
// lowest weighted Gini impurity. Returns ok=false when no split separates
// the examples.
func (g *refGrower) bestSplit(idx []int, pos, neg int) (feat int, thr float64, ok bool) {
	nf := len(g.X[0])
	var candidates []int
	if g.cfg.FeaturesPerSplit > 0 && g.cfg.FeaturesPerSplit < nf {
		seen := make(map[int]bool, g.cfg.FeaturesPerSplit)
		for len(seen) < g.cfg.FeaturesPerSplit {
			seen[g.cfg.Rand.Intn(nf)] = true
		}
		for f := range seen {
			candidates = append(candidates, f)
		}
		sort.Ints(candidates)
	} else {
		candidates = make([]int, nf)
		for f := range candidates {
			candidates[f] = f
		}
	}

	type vl struct {
		v   float64
		pos bool
	}
	bestGini := math.Inf(1)
	total := float64(len(idx))
	vals := make([]vl, 0, len(idx))
	for _, f := range candidates {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, vl{v: g.X[i][f], pos: g.y[i]})
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		if vals[0].v == vals[len(vals)-1].v {
			continue // constant feature
		}
		lp, ln := 0, 0
		for k := 0; k < len(vals)-1; k++ {
			if vals[k].pos {
				lp++
			} else {
				ln++
			}
			if vals[k].v == vals[k+1].v {
				continue
			}
			rp, rn := pos-lp, neg-ln
			nl, nr := float64(lp+ln), float64(rp+rn)
			gini := nl/total*refGiniOf(lp, ln) + nr/total*refGiniOf(rp, rn)
			if gini < bestGini {
				bestGini = gini
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	// Reject splits that do not improve on the parent impurity.
	if ok && bestGini >= refGiniOf(pos, neg)-1e-12 {
		return 0, 0, false
	}
	return feat, thr, ok
}

func refGiniOf(pos, neg int) float64 {
	n := float64(pos + neg)
	if n == 0 {
		return 0
	}
	p := float64(pos) / n
	return 2 * p * (1 - p)
}

package forest

import (
	"math"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/tree"
)

// soa is the structure-of-arrays forest layout: node fields live in flat
// parallel slices instead of per-node heap structs, with every tree's
// nodes stored contiguously in pre-order (root first, left subtree, then
// right) and trees packed back to back. roots[t] is both tree t's root
// index and the start of its span. Scoring walks dense arrays the
// prefetcher can follow — no pointer chasing, one cache line carrying
// eight features or thresholds — and the whole forest typically fits in
// L1/L2, so batched evaluation keeps it resident while streaming vectors
// through.
type soa struct {
	roots     []int32
	feature   []int32 // split feature; -1 marks a leaf
	threshold []float64
	left      []int32 // packed node indices; -1 at leaves
	right     []int32
	label     []bool // leaf prediction; false on internal nodes
	pos, neg  []int32

	// entTab[p] / confTab[p] are Entropy/Confidence for p positive votes:
	// only k+1 vote fractions exist, so the per-vector transcendental is a
	// table lookup. Built with the exact EntropyOf(p/k) expression, so the
	// values are bit-identical to computing them per call.
	entTab, confTab []float64

	// eval is the scoring-path view of the same nodes, packed 16 bytes per
	// node so one visit touches one cache line instead of four parallel
	// arrays; voteTab holds each leaf's vote; depth[t] is tree t's maximum
	// root-to-leaf depth, the iteration count of the fixed-depth batched
	// walk. evalOK records whether every threshold is non-negative and
	// non-NaN — the precondition of the raw-bits comparison eval uses; a
	// forest violating it (only possible via Load of a hand-edited
	// snapshot) scores through the scalar reference walk instead. All four
	// are derived from the canonical slices by buildTables.
	eval    []evalNode
	voteTab []int16
	depth   []int32
	evalOK  bool
}

// evalNode is the packed per-node record batched scoring walks, shaped so
// a walk step needs no branches and no floating-point compare at all.
// Pre-order makes the left child implicit — it is always the next node —
// so an internal node stores only its split and right-child index.
//
// thr holds the threshold's IEEE-754 bit pattern, not the float: for
// non-negative doubles the bit patterns are order-isomorphic to the
// values when compared as uint64 (+Inf sits above every finite value and
// positive NaN above +Inf — and "NaN <= thr" is false, so routing a NaN
// feature right at every node is exactly the reference semantics). That
// turns the float compare into a one-cycle integer subtract whose sign
// bit routes the walk. Negative inputs would break the unsigned order,
// so buildTables clears evalOK for negative thresholds and countVotes
// detects negative features per block; -0.0 is folded to +0.0 by adding
// +0 before taking bits, which preserves "v <= thr" exactly.
//
// delta stores the right child relative to the implicit left one (right -
// node - 1) rather than the index itself: the walk's update collapses to
// n += 1 + delta&mask, two ALU ops fewer per step than re-deriving the
// offset from an absolute index — real money in a loop that saturates
// issue width rather than memory.
//
// A leaf is a self-loop: thr = ^0 exceeds every valid input's bits, so
// the comparison always says "right", and delta = -1 points the step
// back at the leaf itself — a walk that has finished parks there
// harmlessly while the fixed-depth loop runs out; feat = 0 keeps the
// unconditional v[feat] load in bounds.
type evalNode struct {
	thr   uint64
	feat  int32
	delta int32
}

// soaTree is one tree's slice of the layout, with tree-local child
// indices, produced by the grower or the pointer-tree flattener and packed
// by packTrees.
type soaTree struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	label     []bool
	pos, neg  []int32
}

// emit appends a zeroed node and returns its tree-local index.
func (st *soaTree) emit() int32 {
	id := int32(len(st.feature))
	st.feature = append(st.feature, 0)
	st.threshold = append(st.threshold, 0)
	st.left = append(st.left, -1)
	st.right = append(st.right, -1)
	st.label = append(st.label, false)
	st.pos = append(st.pos, 0)
	st.neg = append(st.neg, 0)
	return id
}

// packTrees concatenates per-tree layouts into one contiguous soa,
// rebasing child indices from tree-local to packed positions.
func packTrees(parts []soaTree) soa {
	total := 0
	for i := range parts {
		total += len(parts[i].feature)
	}
	s := soa{
		roots:     make([]int32, len(parts)),
		feature:   make([]int32, 0, total),
		threshold: make([]float64, 0, total),
		left:      make([]int32, 0, total),
		right:     make([]int32, 0, total),
		label:     make([]bool, 0, total),
		pos:       make([]int32, 0, total),
		neg:       make([]int32, 0, total),
	}
	for t := range parts {
		base := int32(len(s.feature))
		s.roots[t] = base
		p := &parts[t]
		s.feature = append(s.feature, p.feature...)
		s.threshold = append(s.threshold, p.threshold...)
		s.label = append(s.label, p.label...)
		s.pos = append(s.pos, p.pos...)
		s.neg = append(s.neg, p.neg...)
		for _, l := range p.left {
			if l >= 0 {
				l += base
			}
			s.left = append(s.left, l)
		}
		for _, r := range p.right {
			if r >= 0 {
				r += base
			}
			s.right = append(s.right, r)
		}
	}
	return s
}

// flattenTree lays a pointer tree out in pre-order — the same emission
// order the grower uses — so a flattened reference forest is structurally
// identical to a directly grown one. Load and the equivalence tests use it.
func flattenTree(root *tree.Node) soaTree {
	var st soaTree
	var walk func(n *tree.Node) int32
	walk = func(n *tree.Node) int32 {
		id := st.emit()
		st.pos[id] = int32(n.Pos)
		st.neg[id] = int32(n.Neg)
		if n.IsLeaf() {
			st.feature[id] = -1
			st.label[id] = n.Label
			return id
		}
		st.feature[id] = int32(n.Feature)
		st.threshold[id] = n.Threshold
		st.left[id] = walk(n.Left)
		st.right[id] = walk(n.Right)
		return id
	}
	walk(root)
	return st
}

// fromTrees builds a packed forest from pointer trees (deserialization and
// the retained reference path).
func fromTrees(trees []*tree.Tree, cfg Config) *Forest {
	parts := make([]soaTree, len(trees))
	for i, t := range trees {
		parts[i] = flattenTree(t.Root)
	}
	f := &Forest{cfg: cfg}
	f.soa = packTrees(parts)
	f.buildTables()
	return f
}

// buildTables derives the scoring-path state from the canonical arrays:
// the packed eval nodes, leaf votes, per-tree depths, and the k+1
// entropy/confidence values.
func (f *Forest) buildTables() {
	f.eval = make([]evalNode, len(f.feature))
	f.voteTab = make([]int16, len(f.feature))
	f.evalOK = true
	for n := range f.feature {
		if f.feature[n] < 0 {
			f.eval[n] = evalNode{thr: ^uint64(0), feat: 0, delta: -1}
			if f.label[n] {
				f.voteTab[n] = 1
			}
			continue
		}
		// Every construction path (grower, flattenTree) emits pre-order, so
		// the left child must sit at n+1 — the invariant the implicit-left
		// walk depends on.
		if f.left[n] != int32(n)+1 {
			panic("forest: node layout is not pre-order")
		}
		thr := f.threshold[n]
		// A negative or NaN threshold breaks the unsigned-bits order the
		// batched walk compares in (see evalNode); trained thresholds are
		// midpoints of similarity values in [0, 1], so this only guards
		// hand-edited snapshots. Adding +0 folds -0.0 to +0.0 — the same
		// "v <= thr" predicate — before the sign check and the bit capture.
		if math.IsNaN(thr) || math.Signbit(thr+0) {
			f.evalOK = false
		}
		f.eval[n] = evalNode{thr: math.Float64bits(thr + 0), feat: f.feature[n], delta: f.right[n] - int32(n) - 1}
	}
	f.depth = make([]int32, len(f.roots))
	for t := range f.roots {
		f.depth[t] = f.nodeDepth(f.roots[t])
	}
	k := len(f.roots)
	f.entTab = make([]float64, k+1)
	f.confTab = make([]float64, k+1)
	for p := 0; p <= k; p++ {
		h := EntropyOf(float64(p) / float64(k))
		f.entTab[p] = h
		f.confTab[p] = 1 - h
	}
}

// nodeDepth returns the maximum root-to-leaf depth below n (0 at a leaf).
func (f *Forest) nodeDepth(n int32) int32 {
	if f.feature[n] < 0 {
		return 0
	}
	l := f.nodeDepth(f.left[n])
	r := f.nodeDepth(f.right[n])
	if r > l {
		l = r
	}
	return l + 1
}

// scoreBlockSize is the number of vectors routed through the forest per
// batch: small enough that the block's votes and converted bits stay in
// L1/L2 across the per-tree passes, large enough to amortize re-walking
// the tree arrays.
const scoreBlockSize = 256

// maxEvalFeatures bounds the per-block bits buffer countVotes keeps on
// its stack (scoreBlockSize × maxEvalFeatures × 8 bytes = 128 KB). Wider
// vectors — far beyond any featurizer this codebase produces — score
// through the scalar reference walk instead.
const maxEvalFeatures = 64

// step advances one walk by one level without any branch or float
// compare: v holds the vector's raw IEEE bits, thr - v[feat] as an
// unsigned subtract goes negative exactly when the feature exceeds the
// threshold (the order isomorphism documented on evalNode), and the
// resulting sign mask picks the implicit left child n+1 or the stored
// right child. Leaves self-loop, so stepping a finished walk is a no-op.
func step(eval []evalNode, v []uint64, n int32) int32 {
	d := eval[n]
	right := int32(int64(d.thr-v[d.feat]) >> 63)
	return n + 1 + d.delta&right
}

// countVotesScalar is the reference walk over the canonical arrays, kept
// for inputs the bits comparison cannot order: negative features or
// thresholds, or vectors wider than the stack buffer.
func (f *Forest) countVotesScalar(V [][]float64, votes []int16) {
	for i, v := range V {
		votes[i] = int16(f.posCount(v))
	}
}

// countVotes tallies each vector's positive votes into votes (len(V)
// entries, overwritten). The traversal is tree-major within blocks — one
// tree's nodes stay cache-hot while a whole block of vectors routes
// through it. Each block's vectors are first converted once to raw IEEE
// bits (folding -0.0 to +0.0), so every walk step is pure integer ALU
// work; the conversion also OR-accumulates the values' sign bits, and a
// block containing any negative feature — which the unsigned comparison
// would mis-order — falls back to the scalar reference walk, keeping the
// fast path exact rather than approximately right.
func (f *Forest) countVotes(V [][]float64, votes []int16) {
	for i := range votes {
		votes[i] = 0
	}
	if len(V) == 0 {
		return
	}
	if !f.evalOK || len(V[0]) > maxEvalFeatures {
		f.countVotesScalar(V, votes)
		return
	}
	eval, voteTab := f.eval, f.voteTab
	nf := len(V[0])
	var bits [scoreBlockSize * maxEvalFeatures]uint64
	for blo := 0; blo < len(V); blo += scoreBlockSize {
		bhi := blo + scoreBlockSize
		if bhi > len(V) {
			bhi = len(V)
		}
		block := V[blo:bhi]
		bv := votes[blo:bhi]
		sign := uint64(0)
		for i, v := range block {
			row := bits[i*nf : i*nf+nf]
			for j, x := range v[:nf] {
				b := math.Float64bits(x + 0)
				sign |= b
				row[j] = b
			}
			// Stop converting at the first row with a negative: a real
			// candidate set has a Missing (-1) in nearly every row, and the
			// rest of the block's conversion would be thrown away.
			if sign>>63 != 0 {
				break
			}
		}
		if sign>>63 != 0 {
			f.countVotesScalar(block, bv)
			continue
		}
		for t, root := range f.roots {
			steps := int(f.depth[t])
			i := 0
			// Eight walks advance in lockstep for the tree's full depth.
			// Each branchless step is a longer dependency chain than the
			// branchy walk, but with no 50/50 split branches there are no
			// mispredict flushes, and eight independent chains keep the
			// core busy through each chain's latency — finished walks just
			// spin on their leaf until the loop runs out.
			for ; i+8 <= len(block); i += 8 {
				v0, v1, v2, v3 := bits[i*nf:(i+1)*nf], bits[(i+1)*nf:(i+2)*nf], bits[(i+2)*nf:(i+3)*nf], bits[(i+3)*nf:(i+4)*nf]
				v4, v5, v6, v7 := bits[(i+4)*nf:(i+5)*nf], bits[(i+5)*nf:(i+6)*nf], bits[(i+6)*nf:(i+7)*nf], bits[(i+7)*nf:(i+8)*nf]
				n0, n1, n2, n3 := root, root, root, root
				n4, n5, n6, n7 := root, root, root, root
				for s := 0; s < steps; s++ {
					n0 = step(eval, v0, n0)
					n1 = step(eval, v1, n1)
					n2 = step(eval, v2, n2)
					n3 = step(eval, v3, n3)
					n4 = step(eval, v4, n4)
					n5 = step(eval, v5, n5)
					n6 = step(eval, v6, n6)
					n7 = step(eval, v7, n7)
				}
				bv[i] += voteTab[n0]
				bv[i+1] += voteTab[n1]
				bv[i+2] += voteTab[n2]
				bv[i+3] += voteTab[n3]
				bv[i+4] += voteTab[n4]
				bv[i+5] += voteTab[n5]
				bv[i+6] += voteTab[n6]
				bv[i+7] += voteTab[n7]
			}
			for ; i < len(block); i++ {
				v := bits[i*nf : i*nf+nf]
				n := root
				for s := 0; s < steps; s++ {
					n = step(eval, v, n)
				}
				bv[i] += voteTab[n]
			}
		}
	}
}

// Scorer is a reusable workspace for batched forest scoring. The vote and
// confidence buffers grow once and are retained, so steady-state scoring —
// the per-iteration hot path of active learning, which re-scores the whole
// candidate pool after every retrain — allocates nothing. A Scorer is not
// safe for concurrent use; it is cheap, so callers fanning out keep one
// per goroutine. The zero value is ready to use.
type Scorer struct {
	votes []int16
	confs []float64

	// run is the par.For body, built once on first use: a fresh closure per
	// call would capture the call arguments and cost one allocation per
	// scoring pass, so the arguments are staged in the fields below instead
	// and the closure captures only the scorer itself.
	run func(lo, hi int)
	f   *Forest
	V   [][]float64
	tab []float64
	dst []float64
}

// NewScorer returns an empty scorer; buffers grow on demand.
func NewScorer() *Scorer { return &Scorer{} }

func (sc *Scorer) voteBuf(n int) []int16 {
	if cap(sc.votes) < n {
		sc.votes = make([]int16, n)
	}
	return sc.votes[:n]
}

// scoreInto tallies votes in parallel and maps them through tab into dst.
// Chunks only ever touch their own index range, so the output is identical
// at any GOMAXPROCS.
func (sc *Scorer) scoreInto(f *Forest, V [][]float64, tab []float64, dst []float64) []float64 {
	if len(dst) != len(V) {
		panic("forest: scorer dst length != vector count")
	}
	if sc.run == nil {
		sc.run = func(lo, hi int) {
			sc.f.countVotes(sc.V[lo:hi], sc.votes[lo:hi])
			for i := lo; i < hi; i++ {
				sc.dst[i] = sc.tab[sc.votes[i]]
			}
		}
	}
	sc.voteBuf(len(V))
	sc.f, sc.V, sc.tab, sc.dst = f, V, tab, dst
	par.For(len(V), sc.run)
	// Drop the staged references so the scorer does not pin the caller's
	// pool or forest beyond the call.
	sc.f, sc.V, sc.tab, sc.dst = nil, nil, nil, nil
	return dst
}

// ConfidencesInto fills dst (len(V)) with conf(e) per vector and returns
// it. Zero-alloc once the scorer's buffers have grown.
func (sc *Scorer) ConfidencesInto(f *Forest, V [][]float64, dst []float64) []float64 {
	return sc.scoreInto(f, V, f.confTab, dst)
}

// EntropiesInto fills dst (len(V)) with Entropy(e) per vector and returns
// it. Zero-alloc once the scorer's buffers have grown.
func (sc *Scorer) EntropiesInto(f *Forest, V [][]float64, dst []float64) []float64 {
	return sc.scoreInto(f, V, f.entTab, dst)
}

// MeanConfidence returns conf(V) averaged over a monitoring set (§5.3),
// reusing the scorer's buffers: the 41 KB/op the old per-call path spent
// on its output slice is gone. Confidences are computed in parallel, then
// summed serially in index order so the floating-point result is identical
// to the serial loop.
func (sc *Scorer) MeanConfidence(f *Forest, V [][]float64) float64 {
	if len(V) == 0 {
		return 1
	}
	if cap(sc.confs) < len(V) {
		sc.confs = make([]float64, len(V))
	}
	confs := sc.ConfidencesInto(f, V, sc.confs[:len(V)])
	sum := 0.0
	for _, c := range confs {
		sum += c
	}
	return sum / float64(len(V))
}

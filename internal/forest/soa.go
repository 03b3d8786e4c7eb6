package forest

import "github.com/corleone-em/corleone/internal/par"

// soa is the structure-of-arrays forest layout: node fields live in flat
// parallel slices instead of per-node heap structs, with every tree's
// nodes stored contiguously in pre-order (root first, left subtree, then
// right) and trees packed back to back. roots[t] is both tree t's root
// index and the start of its span. Scoring (posCount) walks dense arrays
// the prefetcher can follow — no pointer chasing, one cache line carrying
// eight features or thresholds — and the whole forest typically fits in
// L1/L2, so it stays resident while a pool of vectors streams through.
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
}

// soaTree is one tree's slice of the layout, with tree-local child
// indices, produced by the grower or by Load and packed by pack.
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

// pack concatenates per-tree layouts into one contiguous forest, rebasing
// child indices from tree-local to packed positions, and derives the k+1
// entropy/confidence values from the tree count.
func pack(cfg Config, parts []soaTree) *Forest {
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
	k := len(parts)
	s.entTab = make([]float64, k+1)
	s.confTab = make([]float64, k+1)
	for p := 0; p <= k; p++ {
		h := EntropyOf(float64(p) / float64(k))
		s.entTab[p] = h
		s.confTab[p] = 1 - h
	}
	return &Forest{cfg: cfg, soa: s}
}

// countVotes tallies each vector's positive votes into votes (len(V)
// entries, overwritten).
func (f *Forest) countVotes(V [][]float64, votes []int16) {
	for i, v := range V {
		votes[i] = int16(f.posCount(v))
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
	dst []float64
}

// NewScorer returns an empty scorer; buffers grow on demand.
func NewScorer() *Scorer { return &Scorer{} }

// ConfidencesInto fills dst (len(V)) with conf(e) per vector and returns
// it: votes are tallied in parallel and mapped through the confidence
// table. Chunks only ever touch their own index range, so the output is
// identical at any GOMAXPROCS. Zero-alloc once the scorer's buffers have
// grown.
func (sc *Scorer) ConfidencesInto(f *Forest, V [][]float64, dst []float64) []float64 {
	if len(dst) != len(V) {
		panic("forest: scorer dst length != vector count")
	}
	if sc.run == nil {
		sc.run = func(lo, hi int) {
			sc.f.countVotes(sc.V[lo:hi], sc.votes[lo:hi])
			for i := lo; i < hi; i++ {
				sc.dst[i] = sc.f.confTab[sc.votes[i]]
			}
		}
	}
	if cap(sc.votes) < len(V) {
		sc.votes = make([]int16, len(V))
	}
	sc.f, sc.V, sc.dst = f, V, dst
	par.For(len(V), sc.run)
	// Drop the staged references so the scorer does not pin the caller's
	// pool or forest beyond the call.
	sc.f, sc.V, sc.dst = nil, nil, nil
	return dst
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

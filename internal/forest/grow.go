package forest

import (
	"math"
	"math/rand"
	"sort"
)

// grower grows one tree at a time directly into the SoA layout. All of its
// scratch — bootstrap indices, feature marks, split-candidate list, sort
// buffer, partition buffer — is allocated once per par.For chunk and reused
// across trees and nodes, where the classic pointer-tree grower (now only
// the test oracle growReference) allocated fresh index slices, value
// buffers, and sort closures at every node. That per-node garbage is what
// kept concurrent tree growth serialized on the allocator; with it gone,
// goroutines share nothing but the read-only training data.
//
// For a given RNG the grower consumes exactly the same draw sequence and
// produces exactly the same tree as growReference; the equivalence tests pin
// this for every seed they try.
type grower struct {
	X        [][]float64
	y        []bool
	m        int // features considered per split
	minLeaf  int
	maxDepth int
	rng      *rand.Rand

	sample []int  // bootstrap index buffer, len(X); reordered in place by partitioning
	mark   []bool // feature-seen marks, len nf
	cand   []int  // candidate feature indices
	part   []int  // right-half partition scratch
	vs     vlSorter

	st soaTree // tree under construction
}

func newGrower(X [][]float64, y []bool, m, minLeaf, maxDepth int) *grower {
	nf := len(X[0])
	return &grower{
		X: X, y: y, m: m, minLeaf: minLeaf, maxDepth: maxDepth,
		sample: make([]int, len(X)),
		mark:   make([]bool, nf),
		cand:   make([]int, 0, nf),
		part:   make([]int, 0, len(X)),
		vs:     vlSorter{a: make([]vl, 0, len(X))},
	}
}

// growTree grows a tree over the rows selected by idx. idx is reordered in
// place by node partitioning (it aliases g.sample, which the next
// bootstrap refills), and the returned soaTree owns freshly allocated
// slices — it outlives the grower inside the packed forest.
func (g *grower) growTree(idx []int) soaTree {
	g.st = soaTree{}
	g.growNode(idx, 0)
	return g.st
}

func (g *grower) counts(idx []int) (pos, neg int) {
	for _, i := range idx {
		if g.y[i] {
			pos++
		} else {
			neg++
		}
	}
	return
}

// growNode emits the subtree over idx in pre-order — the node itself, then
// the whole left subtree, then the right — matching the Save wire order
// and Load's walk, and returns the node's tree-local index.
func (g *grower) growNode(idx []int, depth int) int32 {
	pos, neg := g.counts(idx)
	id := g.st.emit()
	g.st.pos[id] = int32(pos)
	g.st.neg[id] = int32(neg)
	leaf := func() int32 {
		g.st.feature[id] = -1
		g.st.label[id] = pos > neg
		return id
	}
	if pos == 0 || neg == 0 || len(idx) < 2*g.minLeaf ||
		(g.maxDepth > 0 && depth >= g.maxDepth) {
		return leaf()
	}
	feat, thr, ok := g.bestSplit(idx, pos, neg)
	if !ok {
		return leaf()
	}
	nl := g.partition(idx, feat, thr)
	if nl < g.minLeaf || len(idx)-nl < g.minLeaf {
		return leaf()
	}
	g.st.feature[id] = int32(feat)
	g.st.threshold[id] = thr
	// emit during recursion may regrow the st slices, so index through g.st
	// after each child returns, not through stale copies.
	l := g.growNode(idx[:nl], depth+1)
	g.st.left[id] = l
	r := g.growNode(idx[nl:], depth+1)
	g.st.right[id] = r
	return id
}

// partition stably splits idx around "feature <= thr" in place: rows going
// left are compacted to the front in encounter order, rows going right are
// staged in the scratch buffer and copied to the tail, preserving the
// relative order the append-based reference produced. Returns the left
// count.
func (g *grower) partition(idx []int, feat int, thr float64) int {
	right := g.part[:0]
	nl := 0
	for _, i := range idx {
		if g.X[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	g.part = right
	copy(idx[nl:], right)
	return nl
}

// vl pairs a feature value with its row label for split scanning.
type vl struct {
	v   float64
	pos bool
}

// vlSorter sorts by value ascending through a retained sort.Interface, so
// each per-feature sort costs zero allocations (sort.Slice allocates a
// closure and an interface header per call). Tie order among equal values
// is unspecified, exactly like the reference: split candidates exist only
// between runs of distinct values, and the left-side counts at those
// boundaries cover every element of the tied run regardless of internal
// order, so the chosen split is identical either way.
type vlSorter struct{ a []vl }

func (s *vlSorter) Len() int           { return len(s.a) }
func (s *vlSorter) Less(i, j int) bool { return s.a[i].v < s.a[j].v }
func (s *vlSorter) Swap(i, j int)      { s.a[i], s.a[j] = s.a[j], s.a[i] }

// bestSplit searches a random subset of features for the split with the
// lowest weighted Gini impurity, consuming the RNG identically to the
// reference. Returns ok=false when no split improves on the parent.
func (g *grower) bestSplit(idx []int, pos, neg int) (feat int, thr float64, ok bool) {
	nf := len(g.X[0])
	cand := g.cand[:0]
	if g.m > 0 && g.m < nf {
		// The reference drew Intn(nf) into a set until it held m features.
		// The mark array replays that exact draw sequence — a repeated
		// feature grows neither the set nor the list — without the map.
		for len(cand) < g.m {
			f := g.rng.Intn(nf)
			if !g.mark[f] {
				g.mark[f] = true
				cand = append(cand, f)
			}
		}
		for _, f := range cand {
			g.mark[f] = false
		}
		sort.Ints(cand)
	} else {
		for f := 0; f < nf; f++ {
			cand = append(cand, f)
		}
	}
	g.cand = cand

	bestGini := math.Inf(1)
	total := float64(len(idx))
	for _, f := range cand {
		vals := g.vs.a[:0]
		for _, i := range idx {
			vals = append(vals, vl{v: g.X[i][f], pos: g.y[i]})
		}
		g.vs.a = vals
		sort.Sort(&g.vs)
		vals = g.vs.a
		//corlint:allow float-eq — constant-feature detection over sorted values: an ε-comparison would merge genuinely distinct split points and change the trained tree
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
			//corlint:allow float-eq — split candidates only exist between runs of exactly equal sorted values; the Gini tie-break depends on this being bitwise
			if vals[k].v == vals[k+1].v {
				continue
			}
			rp, rn := pos-lp, neg-ln
			nl, nr := float64(lp+ln), float64(rp+rn)
			gini := nl/total*giniImpurity(lp, ln) + nr/total*giniImpurity(rp, rn)
			if gini < bestGini {
				bestGini = gini
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	// Reject splits that do not improve on the parent impurity.
	if ok && bestGini >= giniImpurity(pos, neg)-1e-12 {
		return 0, 0, false
	}
	return feat, thr, ok
}

func giniImpurity(pos, neg int) float64 {
	n := float64(pos + neg)
	if n == 0 {
		return 0
	}
	p := float64(pos) / n
	return 2 * p * (1 - p)
}

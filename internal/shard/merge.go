package shard

import "github.com/corleone-em/corleone/internal/record"

// pairLess orders pairs (a, b)-lexicographically — the emission order
// every candidate-generation strategy shares.
func pairLess(x, y record.Pair) bool {
	return x.A < y.A || (x.A == y.A && x.B < y.B)
}

// MergePairs merges k (a, b)-ascending pair lists into dst (cleared
// first), preserving (a, b) order — the per-probe-block merge that
// stitches the K shards' survivor lists back into the scan's emission
// order. Ties across lists (impossible for disjoint shard output, but the
// contract is total) resolve to the lower list index, matching the
// linear-scan reference merge it is fuzzed against (merge_test.go).
//
// It is a loser tree: a tournament tree over the list heads. Internal
// nodes hold the loser of their subtree's match; the overall winner sits at
// the root. Emitting the winner and re-playing its leaf's path to the root
// costs one comparison per level — log2(K) work per pair, where the
// reference's head scan costs K. Exhausted lists compete as +infinity and
// sink out of the tree.
func MergePairs(dst []record.Pair, lists [][]record.Pair) []record.Pair {
	dst = dst[:0]
	k := len(lists)
	n := 1
	for n < k {
		n <<= 1
	}
	heads := make([]int, k)
	// beats reports whether list x's head should win against list y's:
	// smaller head pair, exhausted lists losing to live ones, index
	// breaking ties (and ordering exhausted lists arbitrarily).
	beats := func(x, y int) bool {
		xLive := x < k && heads[x] < len(lists[x])
		yLive := y < k && heads[y] < len(lists[y])
		switch {
		case !yLive:
			return true
		case !xLive:
			return false
		}
		px, py := lists[x][heads[x]], lists[y][heads[y]]
		if pairLess(px, py) {
			return true
		}
		if pairLess(py, px) {
			return false
		}
		return x < y
	}
	// tree[1..n-1] hold losers; tree[0] holds the overall winner. Leaves
	// are virtual: leaf i (list index i) sits below internal node (n+i)/2.
	tree := make([]int, n)
	for i := range tree {
		tree[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		// Play list i up the tree: at each filled node the stronger
		// contender rises and the weaker stays as the recorded loser; an
		// unfilled node parks the riser until its sibling's path arrives.
		// After all n leaves are played every node holds a loser and the
		// last unparked riser is the overall winner.
		w := i
		parked := false
		for t := (n + i) / 2; t > 0; t /= 2 {
			if tree[t] < 0 {
				tree[t] = w
				parked = true
				break
			}
			if beats(tree[t], w) {
				tree[t], w = w, tree[t]
			}
		}
		if !parked {
			tree[0] = w
		}
	}
	for {
		w := tree[0]
		if w >= k || heads[w] >= len(lists[w]) {
			return dst // the winner is exhausted: all lists are drained
		}
		dst = append(dst, lists[w][heads[w]])
		heads[w]++
		for t := (n + w) / 2; t > 0; t /= 2 {
			if beats(tree[t], w) {
				tree[t], w = w, tree[t]
			}
		}
		tree[0] = w
	}
}

// Package tree implements the CART-style binary decision trees that make up
// Corleone's random forests (§5.1), and the extraction of decision rules —
// root-to-leaf paths — that powers blocking (§4.1 step 4), reduction (§6.2),
// and difficult-pair location (§7).
//
// Trees split on "feature <= threshold". They are grown by package forest,
// directly into its packed layout; this package holds the pointer form
// (deserialization, rendering) and the rule algebra.
package tree

import (
	"fmt"
	"strings"
)

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	// Feature is the feature index tested at an internal node, -1 at a leaf.
	Feature int
	// Threshold routes vectors: value <= Threshold goes Left, else Right.
	Threshold float64
	Left      *Node
	Right     *Node
	// Label is the leaf prediction (true = match).
	Label bool
	// Pos and Neg are the training example counts that reached this node.
	Pos, Neg int
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Tree is a decision tree in pointer form.
type Tree struct {
	Root *Node
}

// Predict routes v down the tree and returns the leaf label.
func (t *Tree) Predict(v []float64) bool {
	n := t.Root
	for !n.IsLeaf() {
		if v[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// NumLeaves counts the leaves.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the maximum root-to-leaf depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.Root) }

func depthOf(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depthOf(n.Left), depthOf(n.Right)
	if r > l {
		l = r
	}
	return l + 1
}

// String renders the tree with the given feature-name resolver, in the
// indented style of the paper's Figure 2.
func (t *Tree) String(name func(int) string) string {
	var b strings.Builder
	renderNode(&b, t.Root, name, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, name func(int) string, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		lbl := "No"
		if n.Label {
			lbl = "Yes"
		}
		fmt.Fprintf(b, "%s-> %s (%d+/%d-)\n", indent, lbl, n.Pos, n.Neg)
		return
	}
	fmt.Fprintf(b, "%s[%s <= %.4g]\n", indent, name(n.Feature), n.Threshold)
	renderNode(b, n.Left, name, depth+1)
	renderNode(b, n.Right, name, depth+1)
}

// Package detmaprange seeds det-maprange violations: emitting from a map
// range in functions with no sorting evidence.
package detmaprange

import "sort"

// Leak appends per-key results in map order with no sort anywhere in the
// function; flagged.
func Leak(m map[string]int) []string {
	var out []string
	for k := range m { // want det-maprange
		out = append(out, k)
	}
	return out
}

// SendLeak publishes map entries to a channel in map order; flagged.
func SendLeak(m map[int]int, ch chan<- int) {
	for _, v := range m { // want det-maprange
		ch <- v
	}
}

// SortedAfter collects from the map and sorts before anyone can observe
// the order — the repo idiom; not flagged.
func SortedAfter(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HelperSorted relies on a repo-style sorting helper rather than the
// stdlib; the name is the evidence. Not flagged.
func HelperSorted(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	intsSort(out)
	return out
}

func intsSort(xs []int) { sort.Ints(xs) }

// Aggregate is commutative (no append/send/write); not flagged.
func Aggregate(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// ClustersUnsorted sorts each cluster but not the list the loop appends
// the clusters to, so the list keeps map order (crowdjoin's clusterPairs
// without its final sort); flagged.
func ClustersUnsorted(groups map[int][]int) [][]int {
	var out [][]int
	for _, g := range groups { // want det-maprange
		sort.Ints(g)
		out = append(out, g)
	}
	return out
}

// ClustersSorted is the same loop followed by a sort of its output; not
// flagged.
func ClustersSorted(groups map[int][]int) [][]int {
	var out [][]int
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// CandidatesUnsorted collects map keys and sorts another slice (a tree
// grower whose candidate features lost their sort); flagged.
func CandidatesUnsorted(seen map[int]bool, vals []float64) []int {
	var candidates []int
	for f := range seen { // want det-maprange
		candidates = append(candidates, f)
	}
	sort.Float64s(vals)
	return candidates
}

type grower struct{ order []string }

// FieldSorted appends to a field and sorts that field; not flagged.
func (g *grower) FieldSorted(m map[string]int) {
	for k := range m {
		g.order = append(g.order, k)
	}
	sort.Strings(g.order)
}

// KeysElsewhere sorts the map's keys through a helper but sends in map
// order; flagged.
func KeysElsewhere(m map[string]int, ch chan<- string) []string {
	keys := sortedKeys(m)
	for k := range m { // want det-maprange
		ch <- k
	}
	return keys
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

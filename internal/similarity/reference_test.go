package similarity

import (
	"math"
	"sort"
)

// Oracles. Every function in this file is, verbatim, a hot path that
// shipped before a word-parallel kernel replaced it: the two-row edit
// distance DP (before Myers), the greedy bool-flag Jaro matcher (before the
// bit-parallel one), and the set measures merging sorted strings (before
// the integer views). Production code calls none of them; the equivalence
// tests and differential fuzz targets do, so each optimized path stays
// pinned bit-identical to the classic algorithm it replaced.

// levenshteinTwoRowRunes computes the unit-cost edit distance with the
// classic two-row DP over runes, after prefix/suffix trimming and the
// one-empty-side early exit — the exact pre-Myers hot path.
func levenshteinTwoRowRunes(ra, rb []rune) int {
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev, cur := make([]int, len(rb)+1), make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// jaroGreedyRunes is the retained O(|a|·window) Jaro matcher over bool
// flags, the referee of jaroSingle / jaroBlocks.
func jaroGreedyRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA, matchedB := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// jaroWinklerGreedy is JaroWinkler over the greedy matcher.
func jaroWinklerGreedy(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	j := jaroGreedyRunes(ra, rb)
	l := 0
	for l < len(ra) && l < len(rb) && ra[l] == rb[l] && l < 4 {
		l++
	}
	return j + float64(l)*0.1*(1-j)
}

// sortedSetStrings returns the distinct tokens in sorted order.
func sortedSetStrings(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	copy(out, toks)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// sortedCountsStrings returns the distinct tokens in sorted order alongside
// their multiplicities.
func sortedCountsStrings(toks []string) ([]string, []int) {
	keys := sortedSetStrings(toks)
	counts := make([]int, len(keys))
	for _, t := range toks {
		counts[sort.SearchStrings(keys, t)]++
	}
	return keys, counts
}

// intersectSortedStrings counts common elements of two sorted distinct
// string slices.
func intersectSortedStrings(sa, sb []string) int {
	inter := 0
	for i, j := 0, 0; i < len(sa) && j < len(sb); {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// jaccardSortedStrings is the retained string-merge Jaccard.
func jaccardSortedStrings(sa, sb []string) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := intersectSortedStrings(sa, sb)
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// overlapSortedStrings is the retained string-merge overlap coefficient.
func overlapSortedStrings(sa, sb []string) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	small := len(sa)
	if len(sb) < small {
		small = len(sb)
	}
	return float64(intersectSortedStrings(sa, sb)) / float64(small)
}

// stringVector is the retained string-keyed TF/IDF vector: distinct tokens
// in sorted order with TF, IDF, W = TF·IDF and Σ W² in sorted order.
type stringVector struct {
	tokens []string
	tf     []int
	idf, w []float64
	norm   float64
}

func weighStrings(c *Corpus, tokens []string) *stringVector {
	keys, counts := sortedCountsStrings(tokens)
	v := &stringVector{tokens: keys, tf: counts,
		idf: make([]float64, len(keys)), w: make([]float64, len(keys))}
	for i, t := range keys {
		v.idf[i] = c.IDF(t)
		v.w[i] = float64(counts[i]) * v.idf[i]
		v.norm += v.w[i] * v.w[i]
	}
	return v
}

// cosineStringVectors is the retained string-merge TF/IDF cosine.
func cosineStringVectors(a, b *stringVector) float64 {
	if len(a.tokens) == 0 && len(b.tokens) == 0 {
		return 0.5
	}
	if len(a.tokens) == 0 || len(b.tokens) == 0 {
		return 0
	}
	var dot float64
	for i, j := 0, 0; i < len(a.tokens) && j < len(b.tokens); {
		switch {
		case a.tokens[i] < b.tokens[j]:
			i++
		case a.tokens[i] > b.tokens[j]:
			j++
		default:
			dot += a.w[i] * float64(b.tf[j]) * b.idf[j]
			i++
			j++
		}
	}
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	s := dot / (math.Sqrt(a.norm) * math.Sqrt(b.norm))
	if s > 1 {
		s = 1
	}
	return s
}

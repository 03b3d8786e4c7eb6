// Package similarity implements the string and numeric similarity measures
// of the paper's feature library (§4.1 step 3): edit distance, Jaccard,
// Jaro, Jaro-Winkler, Monge-Elkan, overlap, TF/IDF cosine, exact match, and
// numeric differences. All string measures return a similarity in [0, 1]
// where 1 means identical.
package similarity

import (
	"math"

	"github.com/corleone-em/corleone/internal/strutil"
)

// Levenshtein returns the unit-cost edit distance between a and b, computed
// over runes with the classic two-row dynamic program. Invalid UTF-8 bytes
// decode to U+FFFD, so strings differing only in invalid bytes compare
// equal — inputs are expected to be (normalized) valid UTF-8.
func Levenshtein(a, b string) int {
	return levenshteinRunes([]rune(a), []rune(b), nil)
}

// levenshteinRunes is the shared core of Levenshtein; both the string path
// and the profile fast path run through it, so the two are identical by
// construction.
//
// A shared prefix or suffix never contributes to the unit-cost distance
// (any optimal alignment of the remainder extends to one of the whole at
// the same cost), so both are trimmed first. When one trimmed side is
// empty the distance is exactly the remaining length — the tight case of
// the |len(a) − len(b)| lower bound — and no matching runs at all.
// Near-duplicate attribute values, the common case under blocking, resolve
// in O(len) this way. What remains runs through Myers' bit-parallel
// algorithm (myers.go) with the shorter side as the pattern: one 64-bit
// word per ≤64-rune column instead of the classic quadratic DP, which is
// retained as levenshteinTwoRowRunes (reference_test.go) and pinned equal
// by the equivalence tests and the differential fuzz target.
func levenshteinRunes(ra, rb []rune, s *Scratch) int {
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
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if s == nil {
		s = new(Scratch)
	}
	if len(ra) <= 64 {
		return myersSingle(ra, rb, s)
	}
	return myersBlocks(ra, rb, s)
}

// EditSim converts Levenshtein distance to a similarity:
// 1 - dist/max(len(a), len(b)). Two empty strings are identical (1).
func EditSim(a, b string) float64 {
	return editSimRunes([]rune(a), []rune(b), nil)
}

func editSimRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(levenshteinRunes(ra, rb, s))/float64(m)
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix of
// up to 4 runes, with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 {
	return jaroWinklerRunes([]rune(a), []rune(b), nil)
}

func jaroWinklerRunes(ra, rb []rune, s *Scratch) float64 {
	return winkler(jaroRunes(ra, rb, s), ra, rb)
}

// winkler boosts the Jaro similarity j of a and b by their common prefix.
func winkler(j float64, ra, rb []rune) float64 {
	l := 0
	for l < len(ra) && l < len(rb) && ra[l] == rb[l] && l < 4 {
		l++
	}
	return j + float64(l)*0.1*(1-j)
}

// JaccardWords is the Jaccard coefficient over word-token sets.
func JaccardWords(a, b string) float64 {
	return jaccard(strutil.TokenSet(strutil.Words(a)), strutil.TokenSet(strutil.Words(b)))
}

// JaccardQGrams is the Jaccard coefficient over padded 3-gram sets.
func JaccardQGrams(a, b string) float64 {
	return jaccard(strutil.TokenSet(strutil.QGrams(a, 3)), strutil.TokenSet(strutil.QGrams(b, 3)))
}

func jaccard(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	small, large := sa, sb
	if len(sb) < len(sa) {
		small, large = sb, sa
	}
	for t := range small {
		if _, ok := large[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// OverlapWords is the overlap coefficient |A∩B| / min(|A|, |B|) over word
// tokens; it rewards containment (e.g. "Kingston HyperX" vs the full title).
func OverlapWords(a, b string) float64 {
	sa := strutil.TokenSet(strutil.Words(a))
	sb := strutil.TokenSet(strutil.Words(b))
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	small, large := sa, sb
	if len(sb) < len(sa) {
		small, large = sb, sa
	}
	for t := range small {
		if _, ok := large[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(small))
}

// MongeElkan computes the Monge-Elkan similarity: for each token of a, the
// best Jaro-Winkler match among tokens of b, averaged. It is asymmetric; we
// symmetrize by taking the mean of both directions.
func MongeElkan(a, b string) float64 {
	ta, tb := strutil.Words(a), strutil.Words(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return (mongeElkanDir(ta, tb) + mongeElkanDir(tb, ta)) / 2
}

func mongeElkanDir(ta, tb []string) float64 {
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := JaroWinkler(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// ExactMatch returns 1 if the normalized strings are equal and non-empty,
// 0 otherwise. Two empty (missing) values are treated as unknown (0.5) so
// that missing IDs neither confirm nor deny a match.
func ExactMatch(a, b string) float64 {
	na, nb := strutil.Normalize(a), strutil.Normalize(b)
	if na == "" && nb == "" {
		return 0.5
	}
	if na == nb {
		return 1
	}
	return 0
}

// exactEq is the audited comparator for deliberate bitwise float
// equality (corlint float-eq approves it; see DESIGN.md "Enforced
// invariants"). Exact comparison is order- and optimization-sensitive in
// general; routing through one named helper keeps each use reviewable.
func exactEq(a, b float64) bool { return a == b }

// RelativeDiff returns 1 - |a-b| / max(|a|, |b|), a scale-free numeric
// similarity in [0,1]. Equal values (including 0, 0) give 1.
func RelativeDiff(a, b float64) float64 {
	if exactEq(a, b) {
		return 1
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 1
	}
	s := 1 - math.Abs(a-b)/m
	if s < 0 {
		return 0
	}
	return s
}

// AbsDiff returns the absolute difference |a-b| (not normalized; feature
// layer exposes it for threshold rules like "prices differ by $20").
func AbsDiff(a, b float64) float64 { return math.Abs(a - b) }

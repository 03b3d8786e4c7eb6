package similarity

import (
	"strings"

	"github.com/corleone-em/corleone/internal/strutil"
)

// NeedlemanWunsch returns a global-alignment similarity in [0,1]: the
// affine-free alignment score (match +1, mismatch -1, gap -1) normalized by
// the longer length and clamped at 0. Alignment-based measures tolerate
// block edits better than plain Levenshtein.
func NeedlemanWunsch(a, b string) float64 {
	return needlemanWunschRunes([]rune(a), []rune(b), nil)
}

func needlemanWunschRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	prev, cur := s.intRows(lb + 1)
	for j := range prev {
		prev[j] = -j
	}
	for i := 1; i <= la; i++ {
		cur[0] = -i
		for j := 1; j <= lb; j++ {
			s := -1
			if ra[i-1] == rb[j-1] {
				s = 1
			}
			cur[j] = max3(prev[j-1]+s, prev[j]-1, cur[j-1]-1)
		}
		prev, cur = cur, prev
	}
	m := la
	if lb > m {
		m = lb
	}
	score := float64(prev[lb]) / float64(m)
	if score < 0 {
		return 0
	}
	return score
}

// SmithWaterman returns a local-alignment similarity in [0,1]: the best
// local alignment score (match +2, mismatch -1, gap -1) normalized by twice
// the shorter length (the maximum achievable). Local alignment rewards a
// shared core ("hyperx 4gb") regardless of surrounding text.
func SmithWaterman(a, b string) float64 {
	return smithWatermanRunes([]rune(a), []rune(b), nil)
}

func smithWatermanRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	// Both rows start zeroed: cur[0] is only ever read, and the local
	// alignment recurrence relies on the zero floor.
	prev, cur := s.zeroIntRows(lb + 1)
	best := 0
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			s := -1
			if ra[i-1] == rb[j-1] {
				s = 2
			}
			v := max3(prev[j-1]+s, prev[j]-1, cur[j-1]-1)
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	short := la
	if lb < short {
		short = lb
	}
	return float64(best) / float64(2*short)
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// LongestCommonSubstring returns the length of the longest common substring
// of a and b divided by the longer length, in [0,1].
func LongestCommonSubstring(a, b string) float64 {
	return longestCommonSubstringRunes([]rune(a), []rune(b), nil)
}

func longestCommonSubstringRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	// prev must start zeroed (no-match cells reset to 0; row 0 is all 0).
	prev, cur := s.zeroIntRows(lb + 1)
	best := 0
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	m := la
	if lb > m {
		m = lb
	}
	return float64(best) / float64(m)
}

// Soundex encodes a single word with the classic American Soundex
// algorithm (letter + 3 digits). Non-ASCII-letter runes are skipped.
func Soundex(word string) string {
	word = strings.ToUpper(strutil.Normalize(word))
	code := func(r rune) byte {
		switch r {
		case 'B', 'F', 'P', 'V':
			return '1'
		case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
			return '2'
		case 'D', 'T':
			return '3'
		case 'L':
			return '4'
		case 'M', 'N':
			return '5'
		case 'R':
			return '6'
		default:
			return 0 // vowels, H, W, Y, and everything else
		}
	}
	var out []byte
	var prev byte
	for _, r := range word {
		if r < 'A' || r > 'Z' {
			continue
		}
		c := code(r)
		if len(out) == 0 {
			out = append(out, byte(r))
			prev = c
			continue
		}
		// H and W are transparent: they do not reset the previous code.
		if r == 'H' || r == 'W' {
			continue
		}
		if c != 0 && c != prev {
			out = append(out, c)
			if len(out) == 4 {
				break
			}
		}
		prev = c
	}
	if len(out) == 0 {
		return ""
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

// SoundexSim compares two strings by the Soundex codes of their tokens: the
// overlap coefficient of the two distinct-code sets, |A∩B| / min(|A|, |B|).
// Phonetic matching catches spelling-by-ear variants ("Shavlik" /
// "Shavlick"). Counting distinct codes on both sides keeps the measure
// symmetric: "every code of a occurs in b" says nothing about the reverse
// when a repeats a code.
func SoundexSim(a, b string) float64 {
	ca, cb := soundexSet(a), soundexSet(b)
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	if len(cb) < len(ca) {
		ca, cb = cb, ca
	}
	hit := 0
	for c := range ca {
		if cb[c] {
			hit++
		}
	}
	return float64(hit) / float64(len(ca))
}

// soundexSet returns the distinct Soundex codes of s's word tokens.
func soundexSet(s string) map[string]bool {
	codes := make(map[string]bool)
	for _, t := range strutil.Words(s) {
		codes[Soundex(t)] = true
	}
	return codes
}

// CosineQGrams is the cosine similarity over padded 3-gram count vectors,
// an order-insensitive character-level measure.
func CosineQGrams(a, b string) float64 {
	ca := strutil.TokenCounts(strutil.QGrams(a, 3))
	cb := strutil.TokenCounts(strutil.QGrams(b, 3))
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for _, t := range sortedKeys(ca) {
		fa := float64(ca[t])
		na += fa * fa
		if fb, ok := cb[t]; ok {
			dot += fa * float64(fb)
		}
	}
	for _, t := range sortedKeys(cb) {
		fb := float64(cb[t])
		nb += fb * fb
	}
	return cosine(dot, na, nb)
}

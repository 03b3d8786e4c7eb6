// Package strutil provides the string primitives the similarity and feature
// layers build on: normalization, tokenization, and q-gram generation.
package strutil

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases s, collapses runs of whitespace, and trims the ends.
// All similarity functions operate on normalized strings so that case and
// spacing differences do not masquerade as real differences.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	NormalizeTo(&b, s)
	return b.String()
}

// NormalizeTo writes Normalize(s) to b — or, with b nil, only measures it —
// and returns its length. ASCII is cased and spaced by comparisons, any
// other rune by unicode.IsSpace and unicode.ToLower.
func NormalizeTo(b *strings.Builder, s string) int {
	n, space := 0, false
	for _, r := range s {
		if r == ' ' || '\t' <= r && r <= '\r' || r >= utf8.RuneSelf && unicode.IsSpace(r) {
			space = n > 0
			continue
		}
		if space {
			if b != nil {
				b.WriteByte(' ')
			}
			n, space = n+1, false
		}
		switch {
		case r >= utf8.RuneSelf:
			r = unicode.ToLower(r)
			if b != nil {
				b.WriteRune(r)
			}
			n += utf8.RuneLen(r)
			continue
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
		}
		if b != nil {
			b.WriteByte(byte(r))
		}
		n++
	}
	return n
}

// Words splits s into lowercase alphanumeric tokens, treating every other
// rune as a separator. "HyperX 4GB Kit (2 x 2GB)" -> ["hyperx" "4gb" "kit"
// "2" "x" "2gb"].
func Words(s string) []string { return AppendWords(nil, s) }

// AppendWords appends Words(s) to dst. A token lowering leaves as it is —
// every token of a Normalize result, as unicode.ToLower is idempotent — is
// a substring of s; only the others are built anew.
func AppendWords(dst []string, s string) []string {
	start, lower := -1, true
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start, lower = i, true
			}
			lower = lower && !('A' <= r && r <= 'Z') && (r < utf8.RuneSelf || unicode.ToLower(r) == r)
			continue
		}
		dst, start = appendWord(dst, s, start, i, lower), -1
	}
	return appendWord(dst, s, start, len(s), lower)
}

// appendWord appends the token s[start:end], if start ≥ 0, lowered unless it
// already is.
func appendWord(dst []string, s string, start, end int, lower bool) []string {
	switch {
	case start < 0:
		return dst
	case lower:
		return append(dst, s[start:end])
	}
	return append(dst, strings.ToLower(s[start:end]))
}

// QGrams returns the padded q-grams of s (q >= 1). The string is padded with
// q-1 leading and trailing '#' runes so that boundary characters contribute
// as many grams as interior ones. An empty string yields no grams.
func QGrams(s string, q int) []string {
	if s == "" || q <= 0 {
		return nil
	}
	if q == 1 {
		out := make([]string, 0, len(s))
		for _, r := range s {
			out = append(out, string(r))
		}
		return out
	}
	pad := strings.Repeat("#", q-1)
	rs := []rune(pad + strings.ToLower(s) + pad)
	out := make([]string, 0, len(rs)-q+1)
	for i := 0; i+q <= len(rs); i++ {
		out = append(out, string(rs[i:i+q]))
	}
	return out
}

// TokenSet deduplicates a token slice into a set.
func TokenSet(toks []string) map[string]struct{} {
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

// TokenCounts returns the multiset of tokens as a frequency map.
func TokenCounts(toks []string) map[string]int {
	counts := make(map[string]int, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	return counts
}

// Interner numbers distinct strings 0, 1, 2, … in the order they are first
// seen, so the ids depend on the input sequence alone — never on map
// iteration. Reset forgets the strings but keeps the storage: one Interner
// serving many dictionaries in turn grows its map and list once. The zero
// value is ready to use.
type Interner struct {
	id map[string]uint32
	// Values holds the distinct strings by id; it is reused after Reset.
	Values []string
}

// ID returns s's id, assigning the next free one on first sight.
func (in *Interner) ID(s string) uint32 {
	k, ok := in.id[s]
	if !ok {
		if in.id == nil {
			in.id = make(map[string]uint32)
		}
		k = uint32(len(in.Values))
		in.id[s] = k
		in.Values = append(in.Values, s)
	}
	return k
}

// Reset empties the interner for the next dictionary.
func (in *Interner) Reset() {
	clear(in.id)
	in.Values = in.Values[:0]
}

// Trigrams appends the padded 3-grams of s — the grams of QGrams(s, 3), in
// the same order — to dst, each packed into one word: three runes of 21
// bits (a rune is at most 0x10FFFF), first rune highest. Numeric order of
// the packed grams equals the string order of the grams they stand for, and
// no per-gram string is built.
func Trigrams(dst []uint64, s string) []uint64 {
	if s == "" {
		return dst
	}
	const mask = 1<<63 - 1 // drops the rune that leaves the 3-gram window
	g := uint64('#')<<21 | '#'
	for _, r := range s {
		if r >= utf8.RuneSelf || 'A' <= r && r <= 'Z' {
			r = unicode.ToLower(r)
		}
		g = (g<<21 | uint64(r)) & mask
		dst = append(dst, g)
	}
	for i := 0; i < 2; i++ {
		g = (g<<21 | '#') & mask
		dst = append(dst, g)
	}
	return dst
}

// SortedCounts sorts xs in place and returns its distinct values in
// ascending order (aliasing xs) alongside their multiplicities. For
// order-preserving codes — Trigrams, vocabulary ranks — iterating the
// result reproduces the summation order of a sortedKeys(TokenCounts(...))
// loop over the strings exactly, which keeps profile-based cosine measures
// bit-identical to their string-based counterparts.
func SortedCounts(xs []uint64) ([]uint64, []int) {
	if len(xs) == 0 {
		return nil, nil
	}
	slices.Sort(xs)
	counts := make([]int, 0, len(xs))
	w := 0
	for i, x := range xs {
		if i > 0 && x == xs[w-1] {
			counts[w-1]++
			continue
		}
		xs[w] = x
		counts = append(counts, 1)
		w++
	}
	return xs[:w], counts
}

// ParseNumeric parses s as a float after trimming spaces, a leading '$',
// and thousands separators — the exact cleaning IsNumericString applies.
// The second return is false for missing or unparseable values.
func ParseNumeric(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	if !IsNumericString(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// IsNumericString reports whether s looks like a number (optionally signed,
// with at most one decimal point), after trimming spaces, '$' and ','.
func IsNumericString(s string) bool {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return false
	}
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	dot := false
	digits := 0
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return digits > 0
}

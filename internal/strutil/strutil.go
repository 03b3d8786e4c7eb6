// Package strutil provides the string primitives the similarity and feature
// layers build on: normalization, tokenization, and q-gram generation.
package strutil

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The byte classes of the byte-table paths. A byte at or above
// utf8.RuneSelf is cNonASCII and decoded as part of a rune; an ASCII byte's
// class says all the paths need to know of it.
const (
	cWord      = 1 << iota // a letter or a digit: part of a word
	cUpper                 // 'A'..'Z': Normalize and Words lower it
	cSpace                 // ' ' and '\t'..'\r': Normalize collapses it
	cCtrlSpace             // '\t'..'\r': never left as it is
	cNonASCII
)

var class = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cNonASCII
		case 'A' <= c && c <= 'Z':
			t[c] = cWord | cUpper
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			t[c] = cWord
		case c == ' ':
			t[c] = cSpace
		case '\t' <= c && c <= '\r':
			t[c] = cSpace | cCtrlSpace
		}
	}
	return t
}()

// Normalize lowercases s, collapses runs of whitespace, and trims the ends.
// All similarity functions operate on normalized strings so that case and
// spacing differences do not masquerade as real differences.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	NormalizeTo(&b, s)
	return b.String()
}

// NormalASCII reports whether s is ASCII and its own normalization — no
// upper-case letter, no whitespace but single spaces between other bytes —
// and, if it is, how many words it holds (len(Words(s))). It is one pass of
// table reads over the bytes, and the test the column build makes first:
// most attribute values already are their normalization.
func NormalASCII(s string) (words int, ok bool) {
	prev := uint8(cSpace) // a leading space fails as a double one does
	for i := 0; i < len(s); i++ {
		k := class[s[i]]
		if k&(cUpper|cCtrlSpace|cNonASCII)|k&prev&cSpace != 0 {
			return 0, false
		}
		words += int(k &^ prev & cWord)
		prev = k
	}
	return words, prev&cSpace == 0 || s == ""
}

// NormalizeTo writes Normalize(s) to b — or, with b nil, only measures it —
// and returns its length in bytes and in runes, and how many words it holds
// (len(Words(Normalize(s)))). ASCII bytes are cased, spaced and classed by
// one table read; any other rune goes through unicode.IsSpace,
// unicode.ToLower, unicode.IsLetter and unicode.IsDigit, an invalid byte as
// U+FFFD, as a range loop decodes it.
func NormalizeTo(b *strings.Builder, s string) (n, runes, words int) {
	space, word := false, uint8(0)
	for i := 0; i < len(s); {
		r, k, size := rune(s[i]), class[s[i]], 1
		switch {
		case k&cNonASCII != 0:
			r, size = utf8.DecodeRuneInString(s[i:])
			k = cSpace
			if !unicode.IsSpace(r) {
				r, k = unicode.ToLower(r), 0
				if unicode.IsLetter(r) || unicode.IsDigit(r) {
					k = cWord
				}
			}
		case k&cUpper != 0:
			r += 'a' - 'A'
		}
		i += size
		if k&cSpace != 0 {
			space = n > 0
			continue
		}
		if space {
			if b != nil {
				b.WriteByte(' ')
			}
			n, runes, space, word = n+1, runes+1, false, 0
		}
		words += int(k &^ word & cWord)
		word = k & cWord
		if r < utf8.RuneSelf {
			if b != nil {
				b.WriteByte(byte(r))
			}
			n, runes = n+1, runes+1
			continue
		}
		if b != nil {
			b.WriteRune(r)
		}
		n, runes = n+utf8.RuneLen(r), runes+1
	}
	return n, runes, words
}

// Words splits s into lowercase alphanumeric tokens, treating every other
// rune as a separator. "HyperX 4GB Kit (2 x 2GB)" -> ["hyperx" "4gb" "kit"
// "2" "x" "2gb"].
func Words(s string) []string { return AppendWords(nil, s) }

// AppendWords appends Words(s) to dst. A token lowering leaves as it is —
// every token of a Normalize result, as unicode.ToLower is idempotent — is
// a substring of s; only the others are built anew. ASCII bytes are classed
// by one table read, any other rune by unicode.IsLetter and unicode.IsDigit.
func AppendWords(dst []string, s string) []string {
	start, lower := -1, true
	for i := 0; i < len(s); {
		k, size := class[s[i]], 1
		if k&cNonASCII != 0 {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			k = 0
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				k = cWord
				if unicode.ToLower(r) != r {
					k |= cUpper
				}
			}
		}
		switch {
		case k&cWord == 0:
			dst, start = appendWord(dst, s, start, i, lower), -1
		case start < 0:
			start, lower = i, k&cUpper == 0
		default:
			lower = lower && k&cUpper == 0
		}
		i += size
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
// no per-gram string is built. An ASCII byte is lowered by its table class,
// any other rune decoded and lowered by unicode.ToLower.
func Trigrams(dst []uint64, s string) []uint64 {
	if s == "" {
		return dst
	}
	const mask = 1<<63 - 1 // drops the rune that leaves the 3-gram window
	g := uint64('#')<<21 | '#'
	for i := 0; i < len(s); {
		r, k, size := rune(s[i]), class[s[i]], 1
		switch {
		case k&cNonASCII != 0:
			r, size = utf8.DecodeRuneInString(s[i:])
			r = unicode.ToLower(r)
		case k&cUpper != 0:
			r += 'a' - 'A'
		}
		i += size
		g = (g<<21 | uint64(r)) & mask
		dst = append(dst, g)
	}
	for i := 0; i < 2; i++ {
		g = (g<<21 | '#') & mask
		dst = append(dst, g)
	}
	return dst
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

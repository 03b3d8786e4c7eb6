package strutil

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// Oracles: the rune-at-a-time Normalize and Words that shipped before the
// ASCII fast path and the substring tokens. Production code calls neither;
// the tests below and FuzzNormalize / FuzzWords hold the shipped functions
// equal to them.

func normalizeRef(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	started := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			space = started
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
		started = true
	}
	return b.String()
}

func wordsRef(s string) []string {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// checkAgainstReference asserts Normalize, NormalizeTo's measure, NormalASCII
// and Words, of s and of its normalization, equal the oracles'.
func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	n := Normalize(s)
	want := normalizeRef(s)
	if n != want {
		t.Fatalf("Normalize(%q) = %q, reference %q", s, n, want)
	}
	if bytes, runes, words := NormalizeTo(nil, s); bytes != len(want) || runes != utf8.RuneCountInString(want) || words != len(wordsRef(want)) {
		t.Fatalf("NormalizeTo(nil, %q) measures %d bytes, %d runes, %d words; reference %q has %d, %d, %d",
			s, bytes, runes, words, want, len(want), utf8.RuneCountInString(want), len(wordsRef(want)))
	}
	if words, ok := NormalASCII(s); ok != (s == want && isASCII(s)) || ok && words != len(wordsRef(s)) {
		t.Fatalf("NormalASCII(%q) = %d, %v; reference %q", s, words, ok, want)
	}
	for _, x := range []string{s, n} {
		if got, want := Words(x), wordsRef(x); !slices.Equal(got, want) {
			t.Fatalf("Words(%q) = %q, reference %q", x, got, want)
		}
	}
}

// longASCII is longer than any atom below: the byte-table paths' whole
// string, once already normal and once not.
var longASCII = []string{
	strings.Repeat("kingston hyperx 4gb kit (2 x 2gb) ddr3-1600, cl9; ", 6) + "end",
	strings.Repeat("Kingston  HyperX\t4GB Kit (2 x 2GB)  ", 6),
}

// boundaryInputs are the inputs that cross from the ASCII fast paths to the
// rune-at-a-time fallbacks: the long ASCII strings, and an ASCII prefix —
// normal, then not — with a non-ASCII tail, split at every offset.
func boundaryInputs() []string {
	out := append([]string(nil), longASCII...)
	for _, prefix := range []string{"kit 2gb ddr3 x", "Kit  2GB\tddr3 X "} {
		for i := 0; i <= len(prefix); i++ {
			out = append(out, prefix[:i]+"Ünïcödé\u212a\u00a0\u0130x\xff", prefix[:i]+"é", prefix[:i]+"\u0085")
		}
	}
	return out
}

// TestNormalizeAndWordsMatchReference covers every ASCII byte, the non-ASCII
// spaces, runes that lower-case to ASCII (the Kelvin sign, İ), one with no
// lower-case mapping (ϓ), invalid UTF-8, seeded random mixes of them, and
// boundaryInputs, which the mixes reach only by chance.
func TestNormalizeAndWordsMatchReference(t *testing.T) {
	var ascii strings.Builder
	for c := 0; c < 128; c++ {
		ascii.WriteByte(byte(c))
	}
	atoms := []string{
		ascii.String(), "Kingston HyperX 4GB", "  ", "\t\n\v\f\r", "\u0085", "\u00a0",
		"\u212a", "\u0130", "\u03d3", "\xff", "\xc3", "é", "ÉCOLE", "東京", "\u01c5", "x", "Z9",
	}
	for _, a := range atoms {
		checkAgainstReference(t, a)
	}
	for _, s := range boundaryInputs() {
		checkAgainstReference(t, s)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for k := rng.Intn(8); k >= 0; k-- {
			b.WriteString(atoms[rng.Intn(len(atoms))])
		}
		checkAgainstReference(t, b.String())
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

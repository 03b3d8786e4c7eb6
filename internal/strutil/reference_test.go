package strutil

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
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

// checkAgainstReference asserts Normalize, NormalizeTo's measure and Words,
// of s and of its normalization, equal the oracles'.
func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	n := Normalize(s)
	if want := normalizeRef(s); n != want || NormalizeTo(nil, s) != len(want) {
		t.Fatalf("Normalize(%q) = %q (measured %d), reference %q", s, n, NormalizeTo(nil, s), want)
	}
	for _, x := range []string{s, n} {
		if got, want := Words(x), wordsRef(x); !slices.Equal(got, want) {
			t.Fatalf("Words(%q) = %q, reference %q", x, got, want)
		}
	}
}

// TestNormalizeAndWordsMatchReference covers every ASCII byte, the non-ASCII
// spaces, runes that lower-case to ASCII (the Kelvin sign, İ), one with no
// lower-case mapping (ϓ), invalid UTF-8, and seeded random mixes of them.
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
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for k := rng.Intn(8); k >= 0; k-- {
			b.WriteString(atoms[rng.Intn(len(atoms))])
		}
		checkAgainstReference(t, b.String())
	}
}

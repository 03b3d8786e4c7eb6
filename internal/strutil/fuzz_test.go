package strutil

import (
	"strings"
	"testing"
	"unicode"
)

func FuzzNormalize(f *testing.F) {
	for _, seed := range append([]string{"", "Hello  World", "  a ", "ÜNÏ  cøde", "\t\n", "a b c"}, boundaryInputs()...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkAgainstReference(t, s)
		n := Normalize(s)
		if Normalize(n) != n {
			t.Fatalf("not idempotent: %q -> %q -> %q", s, n, Normalize(n))
		}
		if strings.Contains(n, "  ") {
			t.Fatalf("double space survives in %q", n)
		}
		if n != strings.TrimSpace(n) {
			t.Fatalf("untrimmed: %q", n)
		}
		for _, r := range n {
			// Some uppercase runes (e.g. ℝ) have no lowercase mapping;
			// the invariant is that lowering is a fixed point.
			if unicode.ToLower(r) != r {
				t.Fatalf("un-lowered %q survives in %q", r, n)
			}
		}
	})
}

func FuzzQGrams(f *testing.F) {
	for _, seed := range []string{"", "a", "abc", "##", "hello world"} {
		f.Add(seed, 3)
	}
	f.Fuzz(func(t *testing.T, s string, q int) {
		if q < 0 || q > 8 {
			return
		}
		grams := QGrams(s, q)
		if s == "" || q == 0 {
			if grams != nil {
				t.Fatalf("expected nil for empty input, got %v", grams)
			}
			return
		}
		for _, g := range grams {
			if n := len([]rune(g)); n != q {
				t.Fatalf("gram %q has %d runes, want %d", g, n, q)
			}
		}
		if q > 1 {
			want := len([]rune(s)) + q - 1
			if len(grams) != want {
				t.Fatalf("got %d grams, want %d", len(grams), want)
			}
		}
		if q == 3 && len(s) <= 64 {
			checkTrigrams(t, s)
		}
	})
}

func FuzzWords(f *testing.F) {
	for _, seed := range append([]string{"", "a-b_c", "Kingston 4GB (2x2)", "日本 語"}, boundaryInputs()...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkAgainstReference(t, s)
		for _, w := range Words(s) {
			if w == "" {
				t.Fatal("empty token")
			}
			for _, r := range w {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("separator %q inside token %q", r, w)
				}
				// As in FuzzNormalize: ϓ (U+03D3) is upper-case with no
				// lower-case mapping, so the invariant is that lowering is a
				// fixed point (testdata/fuzz/FuzzWords holds that input).
				if unicode.ToLower(r) != r {
					t.Fatalf("un-lowered %q inside token %q", r, w)
				}
			}
		}
	})
}

package strutil

import (
	"cmp"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  Hello   World  ", "hello world"},
		{"ALL CAPS", "all caps"},
		{"", ""},
		{"\t\n ", ""},
		{"a", "a"},
		{"Ünïcode  Töo", "ünïcode töo"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"HyperX 4GB Kit (2 x 2GB)", []string{"hyperx", "4gb", "kit", "2", "x", "2gb"}},
		{"", nil},
		{"---", nil},
		{"one", []string{"one"}},
		{"a-b_c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 3)
	want := []string{"##a", "#ab", "ab#", "b##"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(ab,3) = %v, want %v", got, want)
	}
	if QGrams("", 3) != nil {
		t.Error("QGrams of empty string should be nil")
	}
	if QGrams("abc", 0) != nil {
		t.Error("QGrams with q=0 should be nil")
	}
	if got := QGrams("abc", 1); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("QGrams(abc,1) = %v", got)
	}
}

func TestQGramsCount(t *testing.T) {
	// A string of n runes has n+q-1 padded q-grams.
	f := func(s string) bool {
		s = strings.Map(func(r rune) rune {
			if r == '#' {
				return 'x'
			}
			return r
		}, s)
		if s == "" {
			return true
		}
		n := len([]rune(s))
		return len(QGrams(s, 3)) == n+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkTrigrams asserts Trigrams(nil, s) is QGrams(s, 3) gram for gram — each
// word unpacks to the gram's three runes — and that comparing two packed
// grams orders them as comparing the gram strings does.
func checkTrigrams(t *testing.T, s string) {
	t.Helper()
	grams, packed := QGrams(s, 3), Trigrams(nil, s)
	if len(packed) != len(grams) {
		t.Fatalf("Trigrams(%q) has %d grams, QGrams has %d", s, len(packed), len(grams))
	}
	for i, g := range packed {
		if g>>63 != 0 {
			t.Fatalf("Trigrams(%q)[%d] = %#x uses the 64th bit", s, i, g)
		}
		runes := []rune{rune(g >> 42), rune(g >> 21 & (1<<21 - 1)), rune(g & (1<<21 - 1))}
		if string(runes) != grams[i] {
			t.Fatalf("Trigrams(%q)[%d] unpacks to %q, QGrams gives %q", s, i, string(runes), grams[i])
		}
		for j, h := range packed {
			if cmp.Compare(g, h) != strings.Compare(grams[i], grams[j]) {
				t.Fatalf("packed order of %q vs %q differs from string order", grams[i], grams[j])
			}
		}
	}
}

func TestTrigramsMirrorQGrams(t *testing.T) {
	for _, s := range []string{
		"", "a", "ab", "abc", "hello world", "MiXeD Case", "##", "#a#",
		"日本語テキスト", "naïve café", "\u007f\u0080\u07ff\u0800\uffff\U00010000",
		"a\U0010FFFFb", "\U0010FFFF\U0010FFFF\U0010FFFF", // the top of the 21-bit field
		"bad\xffutf8\xc0", "\ufffd",
	} {
		checkTrigrams(t, s)
	}
	// Trigrams lowers ASCII by its byte table: the same crossings as
	// TestNormalizeAndWordsMatchReference.
	for _, s := range boundaryInputs() {
		checkTrigrams(t, s)
	}
}

func TestTokenSetAndCounts(t *testing.T) {
	toks := []string{"a", "b", "a"}
	set := TokenSet(toks)
	if len(set) != 2 {
		t.Errorf("TokenSet size = %d, want 2", len(set))
	}
	counts := TokenCounts(toks)
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("TokenCounts = %v", counts)
	}
}

func TestInterner(t *testing.T) {
	var in Interner
	var got []uint32
	for _, s := range []string{"b", "a", "b", "", "a", "c"} {
		got = append(got, in.ID(s))
	}
	if want := []uint32{0, 1, 0, 2, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("ids = %v, want first-seen order %v", got, want)
	}
	if want := []string{"b", "a", "", "c"}; !reflect.DeepEqual(in.Values, want) {
		t.Errorf("Values = %q, want %q", in.Values, want)
	}
	in.Reset()
	if id := in.ID("c"); id != 0 || len(in.Values) != 1 {
		t.Errorf("after Reset: ID(c) = %d with %d values, want 0 with 1", id, len(in.Values))
	}
}

func TestIsNumericString(t *testing.T) {
	yes := []string{"12", "-3.5", "+7", "$19.99", "1,234", " 42 ", "0.5"}
	no := []string{"", "abc", "1.2.3", "$", "-", "12a", "..", "1-2"}
	for _, s := range yes {
		if !IsNumericString(s) {
			t.Errorf("IsNumericString(%q) = false, want true", s)
		}
	}
	for _, s := range no {
		if IsNumericString(s) {
			t.Errorf("IsNumericString(%q) = true, want false", s)
		}
	}
}

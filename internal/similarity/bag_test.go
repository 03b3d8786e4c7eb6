package similarity

import (
	"math"
	"strings"
	"testing"
)

// commonRef is the bags' common count the plain way: each value's runes
// counted per bucket, the smaller count summed. ok is false where some
// bucket holds more than 127 runes.
func commonRef(ra, rb []rune) (c int, ok bool) {
	var ca, cb [32]int
	for _, r := range ra {
		ca[bucket(r)]++
	}
	for _, r := range rb {
		cb[bucket(r)]++
	}
	ok = true
	for k := range ca {
		c += min(ca[k], cb[k])
		ok = ok && ca[k] <= 127 && cb[k] <= 127
	}
	return c, ok
}

// FuzzBagBound checks the bags over arbitrary rune strings: the SWAR common
// count equals commonRef's, a bag with a bucket over 127 has no bound
// (+Inf), and each bound is at least the kernel's float64 — EditSimProfiles
// and JaroWinklerProfiles, both argument orders, through one scratch. Seeds:
// empty values, values past 64 runes (the block kernels), a bucket of 128
// runes and one of 127, and non-ASCII runes (which fold like any other).
func FuzzBagBound(f *testing.F) {
	f.Add("", "")
	f.Add("", "abc")
	f.Add("kitten", "sitting")
	f.Add("martha", "marhta")
	f.Add("dwayne", "duane")
	f.Add("j smith, a jones", "a jones, j smith")
	f.Add(strings.Repeat("abcdefgh", 9), strings.Repeat("abcdefgx", 9)) // 72 runes
	f.Add(strings.Repeat("a", 128), "a")                                // bucket over 127: no bound
	f.Add(strings.Repeat("a", 127), strings.Repeat("a", 127))           // the largest bucket that bounds
	f.Add(strings.Repeat("a.", 70), strings.Repeat("3a", 70))           // '.' and '3' share bucket 28
	f.Add("κόσμε naïve", "kosme naive")
	f.Add("日本語テキスト", "日本語のテキスト")
	f.Add("\x00\x00ab", "\x00\x00")
	s := NewScratch()
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 1200 || len(b) > 1200 {
			return
		}
		ra, rb := []rune(a), []rune(b)
		ba, bb := NewBag(ra), NewBag(rb)
		c, ok := commonRef(ra, rb)
		if (ba.ok && bb.ok) != ok {
			t.Fatalf("%q/%q: bags report bound %v, reference %v", a, b, ba.ok && bb.ok, ok)
		}
		if ok {
			if got := ba.common(&bb); got != c {
				t.Fatalf("%q/%q: SWAR common count %d, reference %d", a, b, got, c)
			}
			if got := bb.common(&ba); got != c {
				t.Fatalf("%q/%q: SWAR common count reversed %d, reference %d", a, b, got, c)
			}
		}
		pa, pb := &Profile{Runes: ra}, &Profile{Runes: rb}
		for _, x := range [][2]*Bag{{&ba, &bb}, {&bb, &ba}} {
			eb, jb := EditSimBound(x[0], x[1]), JaroWinklerBound(x[0], x[1])
			if !ok && (!math.IsInf(eb, 1) || !math.IsInf(jb, 1)) {
				t.Fatalf("%q/%q: a bucket over 127 bounds edit at %v, Jaro-Winkler at %v; want +Inf", a, b, eb, jb)
			}
			if e := EditSimProfiles(pa, pb, s); !(eb >= e) {
				t.Fatalf("%q/%q: edit bound %v below EditSim %v", a, b, eb, e)
			}
			if j := JaroWinklerProfiles(pa, pb, s); !(jb >= j) {
				t.Fatalf("%q/%q: Jaro-Winkler bound %v below %v", a, b, jb, j)
			}
			pa, pb = pb, pa
		}
	})
}

// TestBagBoundValues pins the bounds on hand-computed pairs: the folded
// buckets' common count, and the bound where it is exact.
func TestBagBoundValues(t *testing.T) {
	bag := func(s string) *Bag { b := NewBag([]rune(s)); return &b }
	for _, c := range []struct {
		a, b       string
		common     int
		edit, jaro float64
	}{
		// Anagrams: the bag distance is 0, the bound 1 whatever the order.
		{"abc", "cab", 3, 1, 1 + winklerSlack},
		// No rune in common, and no bucket shared: 'a' and 'z' fold to 1 and 26.
		{"aaa", "zz", 0, 0, 0 + winklerSlack},
		// 'a' and 'A' share bucket 1, '.' and '3' bucket 28: folding only
		// loosens.
		{"a", "A", 1, 1, 1 + winklerSlack},
		{"x.", "x3", 2, 1, boost(1, 1) + winklerSlack},
		// One substitution of four: c = 3, bag distance 1; Jaro ≤ (3/4+3/4+1)/3,
		// prefix "ab" of two.
		{"abcd", "abxd", 3, 0.75, boost((0.75+0.75+1)/3, 2) + winklerSlack},
		{"", "", 0, 1, 1},
		{"", "ab", 0, 0, 0 + winklerSlack},
	} {
		a, b := bag(c.a), bag(c.b)
		if got := a.common(b); got != c.common {
			t.Errorf("%q/%q: common %d, want %d", c.a, c.b, got, c.common)
		}
		if got := EditSimBound(a, b); got != c.edit {
			t.Errorf("%q/%q: edit bound %v, want %v", c.a, c.b, got, c.edit)
		}
		if got := JaroWinklerBound(a, b); got != c.jaro {
			t.Errorf("%q/%q: Jaro-Winkler bound %v, want %v", c.a, c.b, got, c.jaro)
		}
	}
}

var benchNames = []string{
	"e. woods, p. martin, m. vasquez, et al",
	"d. kennedy, j. warren",
	"m. peterson, v. becker, p. campbell, m. green",
	"l. singh",
	"kathleen barnes, e. ramirez",
	"woods e, martin p, vasquez m",
	"peterson m., becker v., campbell p.",
}

// BenchmarkBagBound measures one bound of each kind on a pair of bags built
// beforehand, as the verifier reads them: the SWAR common count and the
// kernel's float formula.
func BenchmarkBagBound(b *testing.B) {
	bags := make([]Bag, len(benchNames))
	for i, s := range benchNames {
		bags[i] = NewBag([]rune(s))
	}
	for _, c := range []struct {
		name  string
		bound func(a, b *Bag) float64
	}{{"edit", EditSimBound}, {"jaro_winkler", JaroWinklerBound}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF += c.bound(&bags[i%len(bags)], &bags[(i+3)%len(bags)])
			}
		})
	}
}

package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// jaroCases are the shapes the bit-parallel matcher could get wrong: every
// word boundary of the b side (the masks' side), repeated characters
// competing for one position, transposed near-duplicates, runes beyond the
// ASCII table, and an a side far longer than a one-word b.
var jaroCases = [][2]string{
	{"", ""}, {"a", ""}, {"", "a"}, {"a", "a"}, {"a", "b"},
	{"martha", "marhta"}, {"dixon", "dicksonx"}, {"dwayne", "duane"},
	{"aaaa", "aa"}, {"aa", "aaaa"}, {"abab", "baba"}, {"aabb", "bbaa"},
	{"crate", "trace"}, {"κόσμε", "κόμσε"}, {"日本語テキスト", "日本テキスト語"},
	{"naïve café", "naive cafe"},
	{strings.Repeat("ab", 31) + "c", strings.Repeat("ba", 31) + "c"}, // 63
	{strings.Repeat("ab", 32), strings.Repeat("ba", 32)},             // 64
	{strings.Repeat("ab", 32) + "c", strings.Repeat("ba", 32) + "c"}, // 65
	{strings.Repeat("abc", 43), strings.Repeat("acb", 43)},           // 129
	{strings.Repeat("x", 64), strings.Repeat("x", 65)},               // one word vs two
	{strings.Repeat("x", 65), strings.Repeat("x", 64)},               // two words vs one
	{strings.Repeat("xy", 100), "yx"},                                // long a, tiny b
	{"yx", strings.Repeat("xy", 100)},                                // tiny a, long b
	{strings.Repeat("αβγδ", 40), strings.Repeat("αβδγ", 41)},         // non-ASCII rows
	{strings.Repeat("z", 128) + "q", "q" + strings.Repeat("z", 128)}, // window edge
	{"the quick brown fox " + strings.Repeat("jumps ", 12), "quick the fox brown " + strings.Repeat("jumsp ", 12)},
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestJaroBitParallelMatchesGreedy pins jaroRunes to the retained greedy
// matcher bit for bit on the boundary table and on random rune strings
// spanning both kernels, reusing one Scratch throughout so a table entry
// left behind by one call would corrupt the next.
func TestJaroBitParallelMatchesGreedy(t *testing.T) {
	s := NewScratch()
	check := func(a, b string) {
		t.Helper()
		ra, rb := []rune(a), []rune(b)
		want := jaroGreedyRunes(ra, rb)
		if got := jaroRunes(ra, rb, s); !bitsEqual(got, want) {
			t.Fatalf("jaroRunes(%q, %q) = %v, greedy = %v", a, b, got, want)
		}
		if got := Jaro(a, b); !bitsEqual(got, want) {
			t.Fatalf("Jaro(%q, %q) = %v, greedy = %v", a, b, got, want)
		}
	}
	for _, c := range jaroCases {
		check(c[0], c[1])
		check(c[1], c[0])
	}
	// Every position matching, around the one-word limit of b. jaroSingle
	// stores a candidate position on every step, match or not: once all 64
	// runes of b are taken, each further rune of a stores TrailingZeros64(0) =
	// 64 at order[matches] = order[64] — a slot that has to exist, and that a
	// six-bit index mask would fold onto order[0], sending the transposition
	// count to rb[64]. The 65-against-64 row of jaroCases is the shortest such
	// input; these are the rest of its neighbourhood.
	for _, la := range []int{63, 64, 65, 128} {
		for _, lb := range []int{1, 63, 64} {
			check(strings.Repeat("x", la), strings.Repeat("x", lb))
			check(strings.Repeat("xy", la)[:la], strings.Repeat("yx", lb)[:lb])
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a := randRunes(rng, rng.Intn(201))
		b := randRunes(rng, rng.Intn(201))
		if i%3 == 0 { // near-duplicates: swap two adjacent runes of a
			rb := []rune(a)
			if k := len(rb) - 1; k > 0 {
				j := rng.Intn(k)
				rb[j], rb[j+1] = rb[j+1], rb[j]
			}
			b = string(rb)
		}
		check(a, b)
	}
}

// TestJaroWinklerSymmetric checks, exhaustively over every ordered pair of
// strings of up to five runes from {a, b, c}, that Jaro-Winkler scores the
// same bits in both argument orders — the fact the Monge-Elkan token-pair
// table and its column rest on (one cell per token pair, g[y] read off the
// slab). DESIGN.md "Why the masks sit on b" has the proof;
// FuzzJaroWinklerSymmetric takes it past one word and beyond ASCII.
func TestJaroWinklerSymmetric(t *testing.T) {
	words := [][]rune{nil}
	for n, last := 1, words; n <= 5; n++ {
		var next [][]rune
		for _, w := range last {
			for _, c := range "abc" {
				next = append(next, append(slices.Clip(w), c))
			}
		}
		words, last = append(words, next...), next
	}
	s := NewScratch()
	for _, a := range words {
		for _, b := range words {
			if ab, ba := jaroWinklerRunes(a, b, s), jaroWinklerRunes(b, a, s); !bitsEqual(ab, ba) {
				t.Fatalf("JaroWinkler(%q, %q) = %v, reversed %v", string(a), string(b), ab, ba)
			}
		}
	}
}

// TestMaxIsTheGreaterLoop pins the premise under TokenPairs.MongeElkan's
// builtin max: Jaro-Winkler is in [0, 1], never NaN and never −0 — on the
// boundary table and on random strings — so folding any list of its scores
// from +0 with max keeps the bits of the string measure's `if v > best`
// loop, in any order.
func TestMaxIsTheGreaterLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scores []float64
	add := func(a, b string) {
		v := JaroWinkler(a, b)
		if math.IsNaN(v) || math.Signbit(v) || v > 1 {
			t.Fatalf("JaroWinkler(%q, %q) = %v (%#x), outside [+0, 1]", a, b, v, math.Float64bits(v))
		}
		scores = append(scores, v)
	}
	for _, c := range jaroCases {
		add(c[0], c[1])
		add(c[1], c[0])
	}
	for i := 0; i < 500; i++ {
		add(randRunes(rng, rng.Intn(12)), randRunes(rng, rng.Intn(12)))
	}
	for i := 0; i < 200; i++ {
		list := make([]float64, rng.Intn(8))
		for k := range list {
			list[k] = scores[rng.Intn(len(scores))]
		}
		loop, builtin := 0.0, 0.0
		for _, v := range list {
			if v > loop {
				loop = v
			}
			builtin = max(builtin, v)
		}
		if !bitsEqual(loop, builtin) {
			t.Fatalf("max over %v = %v, the > loop %v", list, builtin, loop)
		}
	}
}

// TestBitKernelsZeroAllocSteadyState pins the satellite fix to
// Scratch.carveRow (the arena used to be clamped to its length, so every
// carve reallocated): on a warm scratch the multi-block Myers core and both
// Jaro kernels allocate nothing.
func TestBitKernelsZeroAllocSteadyState(t *testing.T) {
	short := []rune("kingston hyperx 4gb kit 2 x 2gb ddr3 memory module")
	other := []rune("kingston 4 gb hyperx ddr3 kit high performance módulo")
	long := []rune(strings.Repeat("efficient scalable entity matching ü ", 4))
	long2 := []rune(strings.Repeat("scalable efficient entity resolution ö ", 4))
	s := NewScratch()
	cases := []struct {
		name string
		fn   func()
	}{
		{"myersBlocks", func() { sinkF = float64(myersBlocks(long, long2, s)) }},
		{"jaroSingle", func() { sinkF = jaroRunes(short, other, s) }},
		{"jaroBlocks", func() { sinkF = jaroRunes(long, long2, s) }},
	}
	for _, c := range cases {
		c.fn() // warm the scratch
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s steady state allocates %.1f per op, want 0", c.name, allocs)
		}
	}
}

// BenchmarkJaro compares the shipped kernel with the retained greedy loop
// at the lengths the datasets produce: a token, a name, a title.
func BenchmarkJaro(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 12, 30, 64, 90} {
		x, y := make([]rune, n), make([]rune, n)
		for i := range x { // normalized attribute values: lowercase ASCII and spaces
			x[i], y[i] = rune("abcdefghijklmnopqrst "[rng.Intn(21)]), rune("abcdefghijklmnopqrst "[rng.Intn(21)])
		}
		s := NewScratch()
		b.Run(fmt.Sprintf("bits/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = jaroRunes(x, y, s)
			}
		})
		b.Run(fmt.Sprintf("greedy/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = jaroGreedyRunes(x, y)
			}
		})
	}
}

package similarity

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/corleone-em/corleone/internal/strutil"
)

func FuzzLevenshteinMetricProperties(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("same", "same")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 {
			return // keep the quadratic DP bounded
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			t.Fatal("not symmetric")
		}
		// Distance is over runes: invalid UTF-8 bytes all decode to
		// U+FFFD, so identity of indiscernibles only holds for valid
		// strings.
		if utf8.ValidString(a) && utf8.ValidString(b) {
			if (d == 0) != (a == b) {
				t.Fatalf("identity of indiscernibles violated: d=%d for %q/%q", d, a, b)
			}
		}
		la, lb := len([]rune(a)), len([]rune(b))
		hi := la
		if lb > hi {
			hi = lb
		}
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		if d < lo || d > hi {
			t.Fatalf("d=%d outside [%d,%d]", d, lo, hi)
		}
	})
}

// FuzzMyersMatchesMatrixDP differentially fuzzes the Myers bit-parallel
// core against the retained references on arbitrary rune strings: the
// untrimmed full-matrix DP (levenshteinRef) and the trimmed two-row DP
// that shipped before the rewrite. Seeds cover non-ASCII runes and
// patterns past the 64-rune single-block limit so both the spillover map
// and the multi-block carry chain are exercised; the shared scratch is
// reused across calls to prove the pattern tables are wiped correctly.
func FuzzMyersMatchesMatrixDP(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "émigré")
	f.Add("κόσμε κόσμε", "kosme")
	f.Add("日本語テキストの編集距離", "日本語のテキスト編集距離です")
	f.Add(strings.Repeat("abcdefgh", 9), strings.Repeat("abcdefgx", 9))     // 72 runes: two blocks
	f.Add(strings.Repeat("αβγδ", 40), strings.Repeat("αβγε", 41))           // 160 non-ASCII runes
	f.Add(strings.Repeat("z", 64)+"q", strings.Repeat("z", 64))             // block boundary
	f.Add("prefix-"+strings.Repeat("mid", 50)+"-suffix", "prefix-x-suffix") // trim + long side
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 400 || len(b) > 400 {
			return // keep the quadratic reference bounded
		}
		want := levenshteinRef(a, b)
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, matrix reference = %d", a, b, got, want)
		}
		if got := levenshteinTwoRowRunes([]rune(a), []rune(b)); got != want {
			t.Fatalf("two-row reference disagrees with matrix on %q/%q: %d vs %d", a, b, got, want)
		}
		// Scratch reuse across calls (and argument order) must not change
		// the distance: stale pattern-table entries would surface here.
		s := NewScratch()
		if got := levenshteinRunes([]rune(a), []rune(b), s); got != want {
			t.Fatalf("scratch call 1 = %d, want %d", got, want)
		}
		if got := levenshteinRunes([]rune(b), []rune(a), s); got != want {
			t.Fatalf("scratch call 2 (swapped) = %d, want %d", got, want)
		}
	})
}

// FuzzEditColumn differentially fuzzes the edit column against the pair
// kernel: the pattern and a newline-separated list of texts come from the
// fuzzer, the column is scored whole and over its odd positions, at strides 1
// and 2, on one shared Scratch, and every value must equal EditSimProfiles'
// to the bit — trim, swap and one text at a time on that side, none of them
// and two at a time on this one. Seeds cover a pattern of 1 and of 64 runes,
// runes beyond the ASCII table on either side, empty texts, texts longer
// than the pattern's word, and odd and even text counts.
func FuzzEditColumn(f *testing.F) {
	f.Add("kitten", "sitting\nmitten\n\nkitten")
	f.Add("x", "x\ny\n"+strings.Repeat("x", 70))
	f.Add(strings.Repeat("abcdefgh", 8), strings.Repeat("abcdefgx", 8)+"\n"+strings.Repeat("abcdefgh", 9)+"\nabc")
	f.Add("κόσμε naïve", "kosme naive\nκόσμε\n日本語\nnaïve κόσμε\nκ")
	f.Add("prefix-mid-suffix", "prefix-x-suffix\nprefix-suffix")
	s := NewScratch()
	f.Fuzz(func(t *testing.T, pattern, texts string) {
		a := NewProfile(pattern, FieldRunes)
		if len(a.Runes) == 0 || len(a.Runes) > 64 || len(texts) > 2000 {
			return
		}
		var bs []*Profile
		var all, odd []int32
		for k, line := range strings.Split(texts, "\n") {
			bs = append(bs, NewProfile(line, FieldRunes))
			all = append(all, int32(k))
			if k%2 == 1 {
				odd = append(odd, int32(k))
			}
		}
		for stride := 1; stride <= 2; stride++ {
			for _, pos := range [][]int32{all, odd} {
				dst := make([]float64, len(bs)*stride)
				EditSimColumn(a, bs, pos, dst, stride, s)
				for _, k := range pos {
					if got, want := dst[int(k)*stride], EditSimProfiles(a, bs[k], s); !bitsEqual(got, want) {
						t.Fatalf("EditSimColumn(%q)[%d of %d, stride %d] = %v against %q, EditSimProfiles = %v",
							a.Norm, k, len(pos), stride, got, bs[k].Norm, want)
					}
				}
			}
		}
	})
}

func FuzzStringMeasuresStayInRange(f *testing.F) {
	f.Add("kingston hyperx", "kingston fury")
	f.Add("", "")
	f.Add("a", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 100 || len(b) > 100 {
			return
		}
		for name, fn := range map[string]func(string, string) float64{
			"EditSim":       EditSim,
			"Jaro":          Jaro,
			"JaroWinkler":   JaroWinkler,
			"JaccardWords":  JaccardWords,
			"JaccardQGrams": JaccardQGrams,
			"OverlapWords":  OverlapWords,
			"MongeElkan":    MongeElkan,
		} {
			s := fn(a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s(%q,%q) = %v outside [0,1]", name, a, b, s)
			}
		}
	})
}

// FuzzJaroBitParallel differentially fuzzes the bit-parallel Jaro kernels
// against the retained greedy matcher, demanding Float64bits equality in
// both argument orders (the matcher is not symmetric, so each order is its
// own case) on one shared Scratch, so a mask left behind by one call
// corrupts the next. The seed corpus is jaroCases: both sides at 0, 1, 63,
// 64, 65 and 129 runes, repeated characters, transposed near-duplicates,
// and runes beyond the ASCII table. Then the masks are built once for many
// a: against b rotated and cut or cycled to 0, 1, 63, 64 and 65 runes, a
// tile of a, b, their prefixes and the empty string must score as
// jaroWinklerRunes does pair by pair, and jaroAgainst as jaroRunes.
func FuzzJaroBitParallel(f *testing.F) {
	for _, c := range jaroCases {
		f.Add(c[0], c[1])
	}
	s := NewScratch()
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 600 || len(b) > 600 {
			return // keep the quadratic referee bounded
		}
		ra, rb := []rune(a), []rune(b)
		for _, p := range [][2][]rune{{ra, rb}, {rb, ra}} {
			want := jaroGreedyRunes(p[0], p[1])
			if got := jaroRunes(p[0], p[1], s); !bitsEqual(got, want) {
				t.Fatalf("jaroRunes(%q, %q) = %v, greedy = %v", string(p[0]), string(p[1]), got, want)
			}
		}
		if got, want := JaroWinkler(a, b), jaroWinklerGreedy(a, b); !bitsEqual(got, want) {
			t.Fatalf("JaroWinkler(%q, %q) = %v, greedy = %v", a, b, got, want)
		}

		var as []*Profile
		for _, r := range [][]rune{ra, rb, ra[:len(ra)/2], rb[:len(rb)/3], nil} {
			as = append(as, &Profile{Runes: r})
		}
		// The tiles run back to back on the shared scratch, each b a
		// different rotation of b, so masks one left behind would show in
		// the next; the references use a scratch of their own.
		sizes := []int{0, 1, 63, 64, 65}
		cuts, dst := make([][]rune, len(sizes)), make([][]float64, len(sizes))
		for c, n := range sizes {
			cuts[c] = make([]rune, n)
			for i := range cuts[c] {
				cuts[c][i] = 'x'
				if len(rb) > 0 {
					cuts[c][i] = rb[(i+c)%len(rb)]
				}
			}
			dst[c] = make([]float64, 2*len(as))
			JaroWinklerTile(as, &Profile{Runes: cuts[c]}, dst[c], 2, s)
		}
		ref := NewScratch()
		for c, cut := range cuts {
			for i, pa := range as {
				if want := jaroWinklerRunes(pa.Runes, cut, ref); !bitsEqual(dst[c][2*i], want) {
					t.Fatalf("JaroWinklerTile(%q against %q) = %v, pair by pair %v", string(pa.Runes), string(cut), dst[c][2*i], want)
				}
				if len(cut) == 0 || len(cut) > 64 {
					continue
				}
				peq, over := s.buildMasks(cut)
				got := jaroAgainst(pa.Runes, cut, peq, over)
				s.wipeMasks(cut, over)
				if want := jaroRunes(pa.Runes, cut, ref); !bitsEqual(got, want) {
					t.Fatalf("jaroAgainst(%q, %q) = %v, jaroRunes %v", string(pa.Runes), string(cut), got, want)
				}
			}
		}
	})
}

// FuzzJaroWinklerSymmetric checks that Jaro and Jaro-Winkler score the same
// bits in both argument orders, through both matchers: the one-word kernel
// when the second argument has at most 64 runes, the block kernel past it.
// The seeds reach past one word on either side and beyond the ASCII table,
// where the masks spill into the map.
func FuzzJaroWinklerSymmetric(f *testing.F) {
	for _, c := range jaroCases {
		f.Add(c[0], c[1])
	}
	f.Add(strings.Repeat("abcab", 14), strings.Repeat("bacba", 13)+"c") // 70 and 66
	f.Add(strings.Repeat("aab", 30), strings.Repeat("ab", 20))          // 90 and 40
	f.Add("é日éa日", "日éé日a")
	f.Add(strings.Repeat("日é", 40), strings.Repeat("é日x", 25)) // 80 and 75, non-ASCII
	s := NewScratch()
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 600 || len(b) > 600 {
			return
		}
		ra, rb := []rune(a), []rune(b)
		if ab, ba := jaroRunes(ra, rb, s), jaroRunes(rb, ra, s); !bitsEqual(ab, ba) {
			t.Fatalf("Jaro(%q, %q) = %v, reversed %v", a, b, ab, ba)
		}
		if ab, ba := JaroWinkler(a, b), JaroWinkler(b, a); !bitsEqual(ab, ba) {
			t.Fatalf("JaroWinkler(%q, %q) = %v, reversed %v", a, b, ab, ba)
		}
	})
}

// FuzzSetKernels differentially fuzzes the integer-coded set measures —
// word ranks for Jaccard / overlap / TF-IDF cosine, packed 3-grams for
// q-gram Jaccard — against the retained string merges, demanding
// Float64bits equality. A third document joins the vocabulary so ranks are
// not simply the two inputs' tokens and IDFs vary. Seeds carry runes at the
// top of the 21-bit gram field (U+10FFFF), U+FFFD, the pad rune itself,
// repeated tokens, and empty / punctuation-only values.
func FuzzSetKernels(f *testing.F) {
	f.Add("kingston hyperx 4gb kit", "kingston 4gb kit hyperx", "memory kit")
	f.Add("the the the kit kit", "the kit", "the")
	f.Add("", "", "")
	f.Add("!!!", "a", "")
	f.Add("## #a#", "#a ##", "#")
	f.Add("a\U0010FFFFb \U0010FFFF\U0010FFFF", "a\U0010FFFEb \U0010FFFF", "� \xff")
	f.Add("日本語 テキスト", "テキスト 日本語 日本語", "语 日本語")
	f.Add("naïve café", "NAÏVE  CAFÉ", "cafe")
	f.Fuzz(func(t *testing.T, a, b, extra string) {
		if len(a) > 300 || len(b) > 300 || len(extra) > 300 {
			return
		}
		pa, pb := NewProfile(a, AllFields), NewProfile(b, AllFields)
		c := ProfileCorpus([]*Profile{pa, pb, NewProfile(extra, FieldWordSet)})
		c.WeighProfile(pa)
		c.WeighProfile(pb)
		wa, wb := sortedSetStrings(pa.Tokens), sortedSetStrings(pb.Tokens)
		ga, gb := strutil.QGrams(pa.Norm, 3), strutil.QGrams(pb.Norm, 3)
		for _, k := range []struct {
			name      string
			got, want float64
		}{
			{"jaccard_w", JaccardWordsProfiles(pa, pb), jaccardSortedStrings(wa, wb)},
			{"overlap_w", OverlapWordsProfiles(pa, pb), overlapSortedStrings(wa, wb)},
			{"jaccard_3g", JaccardQGramsProfiles(pa, pb),
				jaccardSortedStrings(sortedSetStrings(ga), sortedSetStrings(gb))},
			{"tfidf_cos", CosineProfiles(pa, pb),
				cosineStringVectors(weighStrings(c, pa.Tokens), weighStrings(c, pb.Tokens))},
			{"tfidf_cos/string", CosineProfiles(pa, pb), c.Cosine(pa.Norm, pb.Norm)},
		} {
			if !bitsEqual(k.got, k.want) {
				t.Fatalf("%s(%q, %q | %q) = %v, string merge = %v", k.name, a, b, extra, k.got, k.want)
			}
		}
	})
}

// FuzzMongeElkanTable differentially fuzzes the token-pair table against the
// string measure. The input decodes to lists of short tokens over a
// four-letter alphabet — few distinct tokens, so the table's cells are hit
// again and again — dealt alternately to the two sides of a column; every
// a×b pair is scored through a tabled TokenPairs twice (the fill, then the
// read-back) and through an untabled one, and all three must equal
// MongeElkan on the strings bit for bit. Every token pair's one cell is
// checked against the kernel in both argument orders as well: the table
// keeps one direction and serves it for the other, which is right only
// while JW(y, x) = JW(x, y) bit for bit (FuzzJaroWinklerSymmetric). The
// column — every a against the whole b side, then against its odd
// positions — must equal TokenPairs.MongeElkan too, through a cold table, a
// warm one and none: past its cost rule for every a with tokens, and
// through it.
func FuzzMongeElkanTable(f *testing.F) {
	f.Add([]byte("abca abd\nabd abca\ndcba\nabca"))
	f.Add([]byte("a\nb\nab ba\nba ab\naabb bbaa abab\nbaba abba"))
	f.Add([]byte("abcdabcd dcbadcba\nabdcabdc cdabcdab\n\n \nd"))
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabc\nbcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabca"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		var sides [2][]*Profile
		for i, line := range strings.Split(string(data), "\n") {
			v := strings.Map(func(r rune) rune {
				if r == ' ' {
					return r
				}
				return rune("abcd"[r%4])
			}, line)
			sides[i%2] = append(sides[i%2], NewProfile(v, FieldTokenIDs))
		}
		var in strutil.Interner
		da, db := NewTokenDict(sides[0], &in), NewTokenDict(sides[1], &in)
		tabled, computed := NewTokenPairs(da, db, true), NewTokenPairs(da, db, false)
		s := NewScratch()
		for _, pa := range sides[0] {
			for _, pb := range sides[1] {
				want := MongeElkan(pa.Norm, pb.Norm)
				for _, got := range []float64{tabled.MongeElkan(pa, pb, s), tabled.MongeElkan(pa, pb, s), computed.MongeElkan(pa, pb, s)} {
					if !bitsEqual(got, want) {
						t.Fatalf("MongeElkan(%q, %q): tables give %v, strings %v", pa.Norm, pb.Norm, got, want)
					}
				}
			}
		}
		for x, rx := range da.runes {
			for y, ry := range db.runes {
				cell := tabled.jaroWinkler(uint32(x), uint32(y), s)
				if !bitsEqual(cell, JaroWinkler(string(rx), string(ry))) || !bitsEqual(cell, JaroWinkler(string(ry), string(rx))) {
					t.Fatalf("cell of (%q, %q) holds %v; kernel %v / %v", string(rx), string(ry), cell,
						JaroWinkler(string(rx), string(ry)), JaroWinkler(string(ry), string(rx)))
				}
			}
		}

		rows := make([]int32, len(sides[1]))
		var odd []int32
		for k := range rows {
			rows[k] = int32(k)
			if k%2 == 1 {
				odd = append(odd, int32(k))
			}
		}
		cold := NewTokenPairs(da, db, true)
		dst := make([]float64, len(rows))
		for _, tp := range []*TokenPairs{cold, cold, computed} {
			run := tp.NewTokenRun(sides[1], rows)
			for _, pa := range sides[0] {
				if len(pa.TokenIDs) == 0 {
					continue
				}
				for _, pos := range [][]int32{rows, odd} {
					s.distinctTokens(pa.TokenIDs)
					tp.slabColumn(len(pa.TokenIDs), run, pos, dst, 1, s)
					ruled := append([]float64(nil), dst...)
					if !tp.MongeElkanColumn(pa, run, pos, ruled, 1, s) {
						copy(ruled, dst)
					}
					for _, k := range pos {
						want := tp.MongeElkan(pa, sides[1][k], s)
						if !bitsEqual(dst[k], want) || !bitsEqual(ruled[k], want) {
							t.Fatalf("MongeElkanColumn(%q) at %q = %v (cost rule applied: %v), pair path %v",
								pa.Norm, sides[1][k].Norm, dst[k], ruled[k], want)
						}
					}
				}
			}
		}
	})
}

package similarity

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/strutil"
)

// fuzzCorpus generates a deterministic mix of realistic and adversarial
// strings: product-title-like token soups, unicode, numerics, empties,
// repeated tokens, and pure punctuation.
func fuzzCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	words := []string{
		"kingston", "hyperx", "4gb", "kit", "2", "x", "2gb", "ddr3",
		"memory", "seagate", "barracuda", "1tb", "caffè", "naïve", "東京",
		"résumé", "Ω", "$19.99", "1,234.5", "-42", "3.14", "the", "of",
		"Schröder", "muñoz", "0", "", "#", "a", "zz",
	}
	out := make([]string, 0, n+6)
	// Fixed edge cases always present.
	out = append(out, "", " ", "τόκυο 東京", "12,345.67", "$0", "ＡＢＣ")
	for len(out) < n+6 {
		k := rng.Intn(8)
		var parts []string
		for j := 0; j < k; j++ {
			parts = append(parts, words[rng.Intn(len(words))])
		}
		sep := " "
		if rng.Intn(5) == 0 {
			sep = "  ,"
		}
		s := strings.Join(parts, sep)
		if rng.Intn(7) == 0 {
			s = strings.ToUpper(s)
		}
		out = append(out, s)
	}
	return out
}

// TestProfileEquivalence verifies that every profile fast path returns a
// result bit-identical to its string-based reference over a seeded fuzz
// corpus, with and without shared scratch buffers. The string measures are
// applied to the normalized string, which is what the feature layer feeds
// them and what the profile precomputes.
func TestProfileEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		corpus := fuzzCorpus(seed, 40)
		profiles := make([]*Profile, len(corpus))
		for i, s := range corpus {
			profiles[i] = NewProfile(s, AllFields)
		}
		c := ProfileCorpus(profiles)
		for _, p := range profiles {
			c.WeighProfile(p)
		}
		scratch := NewScratch()
		// Every profile is both an a and a b below, so one dictionary sits on
		// both sides; the second call of each check reads the table's cells.
		dict := NewTokenDict(profiles, new(strutil.Interner))
		computed, tabled := NewTokenPairs(dict, dict, false), NewTokenPairs(dict, dict, true)

		type check struct {
			name string
			str  func(a, b string) float64
			prof func(a, b *Profile) float64
		}
		checks := []check{
			{"ExactMatch", ExactMatch, ExactMatchProfiles},
			{"EditSim", EditSim,
				func(a, b *Profile) float64 { return EditSimProfiles(a, b, scratch) }},
			{"Jaro", Jaro,
				func(a, b *Profile) float64 { return JaroProfiles(a, b, scratch) }},
			{"JaroWinkler", JaroWinkler,
				func(a, b *Profile) float64 { return JaroWinklerProfiles(a, b, scratch) }},
			{"JaccardWords", JaccardWords, JaccardWordsProfiles},
			{"JaccardQGrams", JaccardQGrams, JaccardQGramsProfiles},
			{"OverlapWords", OverlapWords, OverlapWordsProfiles},
			{"MongeElkan", MongeElkan,
				func(a, b *Profile) float64 { return computed.MongeElkan(a, b, scratch) }},
			{"MongeElkanTable", MongeElkan,
				func(a, b *Profile) float64 { return tabled.MongeElkan(a, b, scratch) }},
			{"TFIDFCosine", c.Cosine, CosineProfiles},
			// The retained pre-kernel hot paths (reference_test.go) referee
			// the same fast paths a second time.
			{"JaroGreedy", func(a, b string) float64 { return jaroGreedyRunes([]rune(a), []rune(b)) },
				func(a, b *Profile) float64 { return JaroProfiles(a, b, scratch) }},
			{"JaroWinklerGreedy", jaroWinklerGreedy,
				func(a, b *Profile) float64 { return JaroWinklerProfiles(a, b, scratch) }},
			{"JaccardWordsMerge", func(a, b string) float64 {
				return jaccardSortedStrings(sortedSetStrings(strutil.Words(a)), sortedSetStrings(strutil.Words(b)))
			}, JaccardWordsProfiles},
			{"JaccardQGramsMerge", func(a, b string) float64 {
				return jaccardSortedStrings(sortedSetStrings(strutil.QGrams(a, 3)), sortedSetStrings(strutil.QGrams(b, 3)))
			}, JaccardQGramsProfiles},
			{"OverlapWordsMerge", func(a, b string) float64 {
				return overlapSortedStrings(sortedSetStrings(strutil.Words(a)), sortedSetStrings(strutil.Words(b)))
			}, OverlapWordsProfiles},
			{"TFIDFCosineMerge", func(a, b string) float64 {
				return cosineStringVectors(weighStrings(c, strutil.Words(a)), weighStrings(c, strutil.Words(b)))
			}, CosineProfiles},
		}

		for i, pa := range profiles {
			for j, pb := range profiles {
				for _, ck := range checks {
					want := ck.str(pa.Norm, pb.Norm)
					got := ck.prof(pa, pb)
					if got != want {
						t.Fatalf("seed %d: %s(%q, %q) profile=%v string=%v",
							seed, ck.name, corpus[i], corpus[j], got, want)
					}
					// A second call through the shared scratch must be
					// identical — buffer reuse may not leak state.
					if again := ck.prof(pa, pb); again != want {
						t.Fatalf("seed %d: %s(%q, %q) second call=%v, want %v (scratch state leak)",
							seed, ck.name, corpus[i], corpus[j], again, want)
					}
				}
			}
		}
	}
}

// TestProfileNumericEquivalence pins the numeric view against
// strutil.ParseNumeric on raw (unnormalized) values, matching the feature
// layer's numericWrapP semantics.
func TestProfileNumericEquivalence(t *testing.T) {
	cases := []string{"42", "$19.99", "1,234.5", " 7 ", "", "abc", "-3.5", "+8", "1.2.3"}
	for _, s := range cases {
		p := NewProfile(s, FieldNumeric)
		want, wok := strutil.ParseNumeric(s)
		if p.NumericOK != wok || (wok && p.Numeric != want) {
			t.Errorf("NewProfile(%q).Numeric = %v,%v want %v,%v",
				s, p.Numeric, p.NumericOK, want, wok)
		}
	}
}

// TestScratchReuseAcrossSizes exercises buffer reuse with growing and
// shrinking inputs: a scratch that leaks state between calls would corrupt
// the mask tables of a smaller follow-up input.
func TestScratchReuseAcrossSizes(t *testing.T) {
	s := NewScratch()
	inputs := []string{
		"a very long string with many characters to grow the buffers",
		"ab",
		"",
		"medium length input here",
		"x",
	}
	for _, a := range inputs {
		for _, b := range inputs {
			ra, rb := []rune(a), []rune(b)
			if got, want := levenshteinRunes(ra, rb, s), Levenshtein(a, b); got != want {
				t.Errorf("Levenshtein(%q,%q) scratch=%d fresh=%d", a, b, got, want)
			}
			if got, want := jaroRunes(ra, rb, s), Jaro(a, b); got != want {
				t.Errorf("Jaro(%q,%q) scratch=%v fresh=%v", a, b, got, want)
			}
		}
	}
}

// TestProfileCorpusMatchesNewCorpus pins the two dictionary builders to
// each other — ProfileCorpus over tokenized profiles (normalized values)
// and NewCorpus over the raw documents give every token the same IDF, upper
// case and odd spacing included — and pins the rank contract the integer
// set views rest on: ranks order tokens as their strings do, and a
// profile's WordIDs are exactly its sorted distinct tokens' ranks.
func TestProfileCorpusMatchesNewCorpus(t *testing.T) {
	docs := fuzzCorpus(5, 60)
	profiles := make([]*Profile, len(docs))
	for i, d := range docs {
		profiles[i] = NewProfile(d, FieldWordSet)
	}
	// Split across two columns and out of order: neither may matter.
	pc := ProfileCorpus(profiles[30:], profiles[:30])
	nc := NewCorpus(docs)
	if len(pc.rank) != len(nc.rank) || pc.docs != nc.docs {
		t.Fatalf("vocabulary %d tokens / %d docs, NewCorpus has %d / %d",
			len(pc.rank), pc.docs, len(nc.rank), nc.docs)
	}
	for a, ra := range pc.rank {
		if !bitsEqual(pc.IDF(a), nc.IDF(a)) || ra != nc.rank[a] {
			t.Fatalf("token %q: rank %d IDF %v, NewCorpus rank %d IDF %v",
				a, ra, pc.IDF(a), nc.rank[a], nc.IDF(a))
		}
		for b, rb := range pc.rank {
			if (a < b) != (ra < rb) {
				t.Fatalf("ranks %d, %d do not order %q, %q as strings", ra, rb, a, b)
			}
		}
	}
	for _, p := range profiles {
		pc.RankProfile(p)
		want := sortedSetStrings(p.Tokens)
		if len(p.WordIDs) != len(want) {
			t.Fatalf("%q: %d word ids for %d distinct tokens", p.Raw, len(p.WordIDs), len(want))
		}
		for i, tok := range want {
			if p.WordIDs[i] != pc.rank[tok] {
				t.Fatalf("%q: WordIDs[%d] = %d, rank of %q is %d", p.Raw, i, p.WordIDs[i], tok, pc.rank[tok])
			}
		}
	}
}

package similarity

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/strutil"
)

// NewTokenDict numbers the distinct tokens of the given (tokenized) profiles
// in first-seen order — profile order, then token order — attaches each
// profile's TokenIDs and returns the dictionary: one side of BuildColumn's
// token dictionaries, for tests that build their profiles one at a time. in
// is reset first.
func NewTokenDict(profiles []*Profile, in *strutil.Interner) *TokenDict {
	in.Reset()
	for _, p := range profiles {
		p.TokenIDs = make([]uint32, len(p.Tokens))
		for i, t := range p.Tokens {
			p.TokenIDs[i] = in.ID(t)
		}
	}
	d := &TokenDict{runes: make([][]rune, len(in.Values))}
	for k, t := range in.Values {
		d.runes[k] = []rune(t)
	}
	return d
}

// ProfileCorpus builds the dictionary of already tokenized profile columns,
// one document per profile: NewCorpus over the profiles' values, for tests
// that build their profiles one at a time.
func ProfileCorpus(cols ...[]*Profile) *Corpus {
	var v vocab
	for _, col := range cols {
		for _, p := range col {
			v.add(p.Tokens, nil, 1)
		}
	}
	return v.corpus()
}

// RankProfile attaches p's sorted distinct word ranks (Profile.WordIDs) under
// the corpus: BuildColumn's word pass over one profile.
func (c *Corpus) RankProfile(p *Profile) { c.attach(p, FieldWordSet) }

// WeighProfile attaches p's word ranks and their corpus-weighted vector.
func (c *Corpus) WeighProfile(p *Profile) { c.attach(p, FieldTFIDF) }

func (c *Corpus) attach(p *Profile, fields Fields) {
	ranks := make([]uint64, len(p.Tokens))
	for i, t := range p.Tokens {
		ranks[i] = c.rank[t]
	}
	slices.Sort(ranks)
	d := distinct(nil, ranks)
	w := wordSlabs{ids: make([]uint64, d)}
	if fields&FieldTFIDF != 0 {
		w.vs, w.tf, w.fl = make([]WeightedVector, 1), make([]int, d), make([]float64, 2*d)
	}
	w.attach(p, ranks, c.idf)
}

// columnEdgeValues are two sides of a column built to break the fast paths:
// empty, whitespace-only and punctuation-only values; upper-case ASCII;
// U+0085 and U+00A0, which are spaces; the Kelvin sign U+212A and İ U+0130,
// which lower-case to ASCII letters; ϓ U+03D3, upper-case with no lower-case
// mapping; invalid UTF-8 bytes, which decode to U+FFFD; repeated 3-grams and
// tokens; numerics; and values on both sides.
var columnEdgeValues = [][]string{
	{
		"", "   ", "\t\n\v\f\r ", "--- !!!", "…", "Kingston HyperX 4GB Kit (2 x 2GB)",
		"ALL  CAPS\tVALUE ", "a\u0085b\u00a0c", "\u00a0", "\u212aelvin \u212a", "\u0130stanbul",
		"\u03d3 \u03d3x", "bad \xff\xfe bytes\xc3", "caffè naïve", "東京 τόκυο", "$1,299.00", "42",
		"aaaaaaaaaaaa aaaa", "kit kit kit 2", "x\u212a", "  lead and trail  ",
	},
	{
		"kingston hyperx 4gb kit", "Kingston HyperX 4GB Kit (2 x 2GB)", "", "!!!", "KIT",
		"\u00a0\u0085", "Ünïcödé and ascii", "\u03d3", "\xff", "2", "aaaa", "zoom lens case",
		"1,234.5", "caffè", "\u0130", "kelvin", "42 42",
	},
}

// rowCounts gives side s's k-th value 1 + (k+s) % 3 rows, so document
// frequencies differ from value counts.
func rowCounts(values [][]string) [][]int {
	rows := make([][]int, len(values))
	for s, vals := range values {
		rows[s] = make([]int, len(vals))
		for k := range vals {
			rows[s][k] = 1 + (k+s)%3
		}
	}
	return rows
}

// checkColumn builds the column at the current GOMAXPROCS and holds every
// view of every value to the per-value functions — strutil.Normalize, Words,
// Trigrams sorted and deduplicated, []rune, ParseNumeric — and the word views, to
// the bit, both to a string-keyed corpus over every row's value (ranks by
// sorting the token set, IDFs from row-counted document frequencies) and to
// ProfileCorpus + WeighProfile over the per-row columns; token ids and runes
// to NewTokenDict over each side.
func checkColumn(t testing.TB, values [][]string, rows [][]int, fields Fields) {
	t.Helper()
	profs, dicts := BuildColumn(values, rows, fields)

	// The per-row columns and the string-keyed corpus over them.
	perRow := make([][]*Profile, len(values))
	df := map[string]int{}
	docs := 0
	for s, vals := range values {
		for k, v := range vals {
			q := NewProfile(v, FieldTFIDF)
			for r := 0; r < rows[s][k]; r++ {
				perRow[s] = append(perRow[s], q)
				docs++
				for tok := range strutil.TokenSet(strutil.Words(strutil.Normalize(v))) {
					df[tok]++
				}
			}
		}
	}
	sorted := make([]string, 0, len(df))
	for tok := range df {
		sorted = append(sorted, tok)
	}
	slices.Sort(sorted)
	corpus := ProfileCorpus(perRow...)

	for s, vals := range values {
		var reference []*Profile // for NewTokenDict
		for k, raw := range vals {
			p := profs[s][k]
			norm := strutil.Normalize(raw)
			if p.Raw != raw || p.Norm != norm {
				t.Fatalf("%q: Raw %q Norm %q, want Norm %q", raw, p.Raw, p.Norm, norm)
			}
			if want := []rune(norm); fields&FieldRunes != 0 && !slices.Equal(p.Runes, want) || fields&FieldRunes == 0 && p.Runes != nil {
				t.Fatalf("%q: Runes %q, want %q", raw, p.Runes, want)
			}
			tokens := strutil.Words(norm)
			if fields&tokenFields != 0 && !slices.Equal(p.Tokens, tokens) || fields&tokenFields == 0 && p.Tokens != nil {
				t.Fatalf("%q: Tokens %q, want %q", raw, p.Tokens, tokens)
			}
			want := strutil.Trigrams(nil, norm)
			slices.Sort(want)
			if want = slices.Compact(want); fields&FieldQGrams != 0 && !slices.Equal(p.Grams, want) || fields&FieldQGrams == 0 && p.Grams != nil {
				t.Fatalf("%q: Grams %v, want %v", raw, p.Grams, want)
			}
			if num, ok := strutil.ParseNumeric(raw); fields&FieldNumeric != 0 && (p.NumericOK != ok || !bitsEqual(p.Numeric, num)) {
				t.Fatalf("%q: Numeric %v %v, want %v %v", raw, p.Numeric, p.NumericOK, num, ok)
			}
			if fields&(FieldWordSet|FieldTFIDF) == 0 {
				if p.WordIDs != nil || p.TFIDF != nil {
					t.Fatalf("%q: word views without FieldWordSet or FieldTFIDF", raw)
				}
			} else {
				keys, tf := sortedCountsStrings(tokens)
				wordIDs := make([]uint64, len(keys))
				for i, tok := range keys {
					r, _ := slices.BinarySearch(sorted, tok)
					wordIDs[i] = uint64(r)
				}
				if !slices.Equal(p.WordIDs, wordIDs) {
					t.Fatalf("%q: WordIDs %v, want %v", raw, p.WordIDs, wordIDs)
				}
				if fields&FieldTFIDF == 0 {
					if p.TFIDF != nil {
						t.Fatalf("%q: TFIDF without FieldTFIDF", raw)
					}
				} else {
					var norm2 float64
					v := p.TFIDF
					for i, tok := range keys {
						idf := math.Log(float64(docs+1) / float64(df[tok]+1))
						w := float64(tf[i]) * idf
						norm2 += w * w
						if v.TF[i] != tf[i] || !bitsEqual(v.IDF[i], idf) || !bitsEqual(v.W[i], w) {
							t.Fatalf("%q: token %q TF %d IDF %v W %v, want %d %v %v", raw, tok, v.TF[i], v.IDF[i], v.W[i], tf[i], idf, w)
						}
					}
					if len(v.TF) != len(keys) || !bitsEqual(v.Norm, norm2) {
						t.Fatalf("%q: %d weights, Norm %v; want %d, %v", raw, len(v.TF), v.Norm, len(keys), norm2)
					}
					q := NewProfile(raw, FieldTFIDF)
					corpus.WeighProfile(q)
					if !slices.Equal(q.WordIDs, p.WordIDs) || !bitsEqual(q.TFIDF.Norm, v.Norm) ||
						!slices.Equal(q.TFIDF.TF, v.TF) || !slices.EqualFunc(q.TFIDF.W, v.W, bitsEqual) {
						t.Fatalf("%q: column path and ProfileCorpus + WeighProfile differ", raw)
					}
				}
			}
			reference = append(reference, NewProfile(raw, FieldTokenIDs))
		}
		if fields&FieldTokenIDs == 0 {
			if dicts != nil || slices.ContainsFunc(profs[s], func(p *Profile) bool { return p.TokenIDs != nil }) {
				t.Fatal("token ids without FieldTokenIDs")
			}
			continue
		}
		dict := NewTokenDict(reference, new(strutil.Interner))
		if dicts[s].Len() != dict.Len() {
			t.Fatalf("side %d: %d tokens, NewTokenDict has %d", s, dicts[s].Len(), dict.Len())
		}
		for k, p := range profs[s] {
			if !slices.Equal(p.TokenIDs, reference[k].TokenIDs) {
				t.Fatalf("%q: TokenIDs %v, want %v", p.Raw, p.TokenIDs, reference[k].TokenIDs)
			}
		}
		for id, rs := range dict.runes {
			if !slices.Equal(dicts[s].runes[id], rs) {
				t.Fatalf("side %d token %d: runes %q, want %q", s, id, dicts[s].runes[id], rs)
			}
		}
	}
}

// TestColumnProfilesMatchNewProfile pins the column build to the per-value
// functions it replaced, on the edge values, for each attribute type's field
// set and for all of them, with the chunk boundaries GOMAXPROCS 1, 2 and 4
// put in different places.
func TestColumnProfilesMatchNewProfile(t *testing.T) {
	rows := rowCounts(columnEdgeValues)
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, fields := range []Fields{
				AllFields,
				FieldRunes | FieldWordSet | FieldQGrams | FieldTokenIDs, // string
				FieldWordSet | FieldTFIDF,                               // text
				FieldNumeric,                                            // numeric
				FieldQGrams | FieldRunes,                                // categorical
				FieldTokenIDs,
				0,
			} {
				checkColumn(t, columnEdgeValues, rows, fields)
			}
		}()
	}
}

// TestColumnSlabsSizedExactly guards the trap an upper-bound slab falls into:
// sizing Norm by the raw length, runes by bytes, tokens by half the bytes or
// grams by the rune count raised the bytes a build allocates while cutting
// its allocation count. On values whose every bound is loose — runs of
// spaces, one 3-gram repeated — one chunk's build must allocate no more
// than its views hold, bar size-class rounding and the sort buffer.
func TestColumnSlabsSizedExactly(t *testing.T) {
	values := make([]string, 400)
	for k := range values {
		values[k] = strings.Repeat("a", 40+k%7) + strings.Repeat(" ", 30) + strings.Repeat("-", 20) + "b"
	}
	out := make([]Profile, len(values))
	fields := FieldRunes | FieldQGrams | FieldWordSet
	profileValues(values, fields, out) // warm up
	held := 0
	for _, p := range out {
		held += len(p.Norm) + 4*len(p.Runes) + 16*len(p.Tokens) + 8*len(p.Grams)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	profileValues(values, fields, out)
	runtime.ReadMemStats(&after)
	if got, limit := int(after.TotalAlloc-before.TotalAlloc), held+held/8+4096; got > limit {
		t.Errorf("one chunk allocated %d bytes for %d bytes of views (limit %d)", got, held, limit)
	}
}

// FuzzColumnProfiles splits the input into values, deals them to two sides
// and builds the column at a fuzzed GOMAXPROCS: every view must equal the
// per-value functions' to the bit.
func FuzzColumnProfiles(f *testing.F) {
	f.Add([]byte("Kingston HyperX\nkit\n\n  \n\u212a\u0130\u03d3\xff\nkit"), uint8(2))
	f.Add([]byte("a\u0085b\u00a0c\n!!!\n$1,299.00\n42\naaaaaaaa"), uint8(3))
	f.Add([]byte("\n\n\n"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, procs uint8) {
		if len(data) > 1024 {
			return
		}
		values := make([][]string, 2)
		seen := [2]map[string]bool{{}, {}}
		for i, v := range strings.Split(string(data), "\n") {
			if s := i % 2; !seen[s][v] {
				seen[s][v] = true
				values[s] = append(values[s], v)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + int(procs%4)))
		checkColumn(t, values, rowCounts(values), AllFields)
	})
}

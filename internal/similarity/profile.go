package similarity

// Fields selects which precomputed views a Profile carries. A record is
// compared against thousands of counterparts during a pair scan, so
// everything a measure would re-derive from the string on every call —
// normalization, rune decoding, tokenization, q-grams, sorted count
// vectors, parsed numerics — is computed once per record instead. Callers request only the fields their measures need; the
// feature extractor picks them per attribute type.
type Fields uint

const (
	// FieldRunes decodes the normalized string into runes (edit distance,
	// Jaro, Jaro-Winkler).
	FieldRunes Fields = 1 << iota
	// FieldTokenIDs tokenizes for the token-id view (Monge-Elkan). Ids are
	// relative to the column's token dictionary, so NewProfile only
	// tokenizes; BuildColumn attaches the view.
	FieldTokenIDs
	// FieldWordSet tokenizes for the sorted distinct word-rank view (word
	// Jaccard, overlap). Ranks are relative to a vocabulary, so NewProfile
	// only tokenizes; BuildColumn attaches the view.
	FieldWordSet
	// FieldTFIDF adds the corpus-weighted vector over the word ranks
	// (TF/IDF cosine); BuildColumn attaches it.
	FieldTFIDF
	// FieldQGrams materializes the sorted distinct packed 3-grams (q-gram
	// Jaccard).
	FieldQGrams
	// FieldNumeric parses the raw value as a number (numeric diffs).
	FieldNumeric
)

// AllFields builds every view; equivalence tests and generic callers use it.
const AllFields = FieldRunes | FieldTokenIDs | FieldWordSet | FieldTFIDF |
	FieldQGrams | FieldNumeric

// Profile is the precomputed view of one attribute value. The profile fast
// paths below consume pairs of profiles and return results bit-identical to
// the corresponding string measures applied to Norm (for measures that
// normalize internally, to Raw as well): they run the same cores in the
// same floating-point summation order, only on prebuilt structures.
type Profile struct {
	// Raw is the original attribute value; Norm is strutil.Normalize(Raw).
	Raw, Norm string
	// Runes is Norm decoded to runes (FieldRunes).
	Runes []rune
	// Tokens is strutil.Words(Norm) — substrings of Norm when it is ASCII;
	// populated whenever any token-derived field is requested.
	Tokens []string
	// TokenIDs is Tokens as ids in the side's token dictionary, which holds
	// each distinct token's runes once; set by BuildColumn (FieldTokenIDs).
	TokenIDs []uint32
	// WordIDs is the distinct Tokens as ascending ranks in the attribute's
	// sorted vocabulary, set by BuildColumn (FieldWordSet). Rank order is
	// string order, so merging WordIDs visits tokens exactly as merging the
	// sorted strings would.
	WordIDs []uint64
	// Grams are the sorted distinct padded 3-grams of Norm, packed by
	// strutil.Trigrams (FieldQGrams).
	Grams []uint64
	// Numeric / NumericOK are strutil.ParseNumeric(Raw) (FieldNumeric).
	Numeric   float64
	NumericOK bool
	// TFIDF is the corpus-weighted vector aligned with WordIDs, set by
	// BuildColumn (FieldTFIDF).
	TFIDF *WeightedVector
}

// NewProfile precomputes the requested views of one attribute value except
// the dictionary-relative ones (WordIDs, TFIDF, TokenIDs): the column build
// over a column of one value, before its dictionary pass.
func NewProfile(raw string, fields Fields) *Profile {
	p := make([]Profile, 1)
	profileValues([]string{raw}, fields, p)
	return &p[0]
}

// ExactMatchProfiles is the profile fast path of ExactMatch.
func ExactMatchProfiles(a, b *Profile) float64 {
	if a.Norm == "" && b.Norm == "" {
		return 0.5
	}
	if a.Norm == b.Norm {
		return 1
	}
	return 0
}

// EditSimProfiles is the profile fast path of EditSim (requires FieldRunes).
func EditSimProfiles(a, b *Profile, s *Scratch) float64 {
	return editSimRunes(a.Runes, b.Runes, s)
}

// JaroProfiles is the profile fast path of Jaro (requires FieldRunes).
func JaroProfiles(a, b *Profile, s *Scratch) float64 {
	return jaroRunes(a.Runes, b.Runes, s)
}

// JaroWinklerProfiles is the profile fast path of JaroWinkler (requires
// FieldRunes).
func JaroWinklerProfiles(a, b *Profile, s *Scratch) float64 {
	return jaroWinklerRunes(a.Runes, b.Runes, s)
}

// JaccardWordsProfiles is the profile fast path of JaccardWords (requires
// FieldWordSet, both profiles ranked under one corpus).
func JaccardWordsProfiles(a, b *Profile) float64 {
	return jaccardSorted(a.WordIDs, b.WordIDs)
}

// JaccardQGramsProfiles is the profile fast path of JaccardQGrams (requires
// FieldQGrams).
func JaccardQGramsProfiles(a, b *Profile) float64 {
	return jaccardSorted(a.Grams, b.Grams)
}

// jaccardSorted mirrors jaccard over sorted distinct integer codes: the
// intersection is a linear merge of machine words instead of map probes,
// and the result is the same integer-derived ratio.
func jaccardSorted(sa, sb []uint64) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	return JaccardOf(intersectSorted(sa, sb), len(sa), len(sb))
}

// JaccardOf finishes a Jaccard from the intersection's size and the two
// non-empty sets' — for the merge above and for feature's column kernels.
func JaccardOf(inter, na, nb int) float64 {
	return float64(inter) / float64(na+nb-inter)
}

// intersectSorted counts common elements of two sorted distinct slices.
// Which side advances is data, not control flow: a scan compares a fresh
// pair of sets every call, so a compare-and-branch merge mispredicts about
// every other step, while flag arithmetic (the compiler emits SETcc for
// B2i) keeps the loop at its load-compare-add latency.
func intersectSorted(sa, sb []uint64) int {
	inter := 0
	for i, j := 0, 0; i < len(sa) && j < len(sb); {
		x, y := sa[i], sb[j]
		inter += B2i(x == y)
		i += B2i(x <= y)
		j += B2i(y <= x)
	}
	return inter
}

// B2i is b as 0 or 1 without a branch: the compiler emits SETcc, so a loop
// that adds it keeps its latency where a compare-and-branch would mispredict.
func B2i(b bool) int {
	var v int
	if b {
		v = 1
	}
	return v
}

// OverlapWordsProfiles is the profile fast path of OverlapWords (requires
// FieldWordSet, both profiles ranked under one corpus).
func OverlapWordsProfiles(a, b *Profile) float64 {
	return overlapSorted(a.WordIDs, b.WordIDs)
}

// overlapSorted is the overlap coefficient |A∩B| / min(|A|, |B|) of two
// sorted distinct code sets.
func overlapSorted(sa, sb []uint64) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	return OverlapOf(intersectSorted(sa, sb), len(sa), len(sb))
}

// OverlapOf finishes an overlap coefficient likewise.
func OverlapOf(inter, na, nb int) float64 {
	return float64(inter) / float64(min(na, nb))
}

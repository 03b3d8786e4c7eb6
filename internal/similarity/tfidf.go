package similarity

import (
	"math"
	"sort"

	"github.com/corleone-em/corleone/internal/strutil"
)

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Corpus is the token dictionary of a collection of documents (one
// attribute's values across both tables): every distinct word token's rank
// in the sorted vocabulary, and its inverse document frequency, by which
// TF/IDF cosine similarity weights rare tokens (model numbers, distinctive
// words) more heavily than ubiquitous ones ("the", "kit"). BuildColumn
// gives profiles the same ranks and IDFs without one.
type Corpus struct {
	rank map[string]uint64
	idf  []float64 // by rank
	docs int
}

// NewCorpus builds the dictionary from the given documents.
func NewCorpus(docs []string) *Corpus {
	var v vocab
	for _, d := range docs {
		v.add(strutil.Words(d), nil, 1)
	}
	return v.corpus()
}

// corpus is the dictionary of the documents added to v.
func (v *vocab) corpus() *Corpus {
	rank, idf := v.rank()
	c := &Corpus{rank: make(map[string]uint64, len(rank)), idf: idf, docs: v.docs}
	for id, t := range v.in.Values {
		c.rank[t] = rank[id]
	}
	return c
}

// IDF returns the inverse document frequency of token t. Tokens absent from
// the corpus receive the maximum IDF (they are rarer than anything seen).
func (c *Corpus) IDF(t string) float64 {
	if r, ok := c.rank[t]; ok {
		return c.idf[r]
	}
	return math.Log(float64(c.docs + 1))
}

// WeightedVector is a record's TF/IDF view under one corpus, aligned with
// the record's Profile.WordIDs: term frequencies, IDFs, precomputed weights
// W[i] = TF[i]·IDF[i], and the squared norm Σ W[i]² accumulated in rank
// (= sorted token) order. Precomputing it once per record removes the
// per-comparison tokenization, key sorting, and IDF map probes.
type WeightedVector struct {
	TF   []int
	IDF  []float64
	W    []float64
	Norm float64
}

// CosineProfiles is the profile fast path of Corpus.Cosine: both profiles
// must have been weighed under one corpus (BuildColumn). The dot product
// merges the rank lists, visiting common tokens in ascending rank — which is
// ascending token order, the string path's floating-point summation order,
// so scores are bit-identical.
func CosineProfiles(a, b *Profile) float64 {
	if len(a.WordIDs) == 0 && len(b.WordIDs) == 0 {
		return 0.5
	}
	if len(a.WordIDs) == 0 || len(b.WordIDs) == 0 {
		return 0
	}
	va, vb := a.TFIDF, b.TFIDF
	var dot float64
	for i, j := 0, 0; i < len(a.WordIDs) && j < len(b.WordIDs); {
		switch x, y := a.WordIDs[i], b.WordIDs[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dot += va.W[i] * float64(vb.TF[j]) * vb.IDF[j]
			i++
			j++
		}
	}
	return CosineOf(dot, va.Norm, vb.Norm)
}

// CosineOf finishes a cosine from the dot product and the squared norms. A
// dot product of +0 gives +0: two positive roots multiply to at least the
// smallest subnormal (2⁻⁵³⁷ · 2⁻⁵³⁷), never to the 0 of a 0/0.
func CosineOf(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	s := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if s > 1 {
		s = 1 // guard against fp drift
	}
	return s
}

// Cosine returns the TF/IDF-weighted cosine similarity of a and b in [0,1].
// Two empty strings are treated as unknown (0.5), one empty as 0. Weights
// accumulate in sorted token order, each token's IDF looked up once.
func (c *Corpus) Cosine(a, b string) float64 {
	ca := strutil.TokenCounts(strutil.Words(a))
	cb := strutil.TokenCounts(strutil.Words(b))
	if len(ca) == 0 && len(cb) == 0 {
		return 0.5
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for _, t := range sortedKeys(cb) {
		w := float64(cb[t]) * c.IDF(t)
		nb += w * w
	}
	for _, t := range sortedKeys(ca) {
		idf := c.IDF(t)
		w := float64(ca[t]) * idf
		na += w * w
		if fb, ok := cb[t]; ok {
			dot += w * float64(fb) * idf
		}
	}
	return CosineOf(dot, na, nb)
}

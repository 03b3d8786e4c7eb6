package similarity

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf8"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/strutil"
)

const (
	tokenFields = FieldTokenIDs | FieldWordSet | FieldTFIDF // built from Tokens
	wordFields  = FieldWordSet | FieldTFIDF
)

// BuildColumn profiles one attribute of the tables being matched — values[s]
// are side s's distinct values, held by rows[s][k] rows each — with every
// requested view, and with FieldTokenIDs a token dictionary per side. After
// profileValues, one serial pass numbers the column's tokens in first-seen
// order under the build's only token map; document frequencies (counting
// rows, as NewCorpus over every row's value would), ranks, IDFs, word views
// and dictionaries then come from those ids through arrays.
func BuildColumn(values [][]string, rows [][]int, fields Fields) ([][]*Profile, []*TokenDict) {
	profs := make([][]*Profile, len(values))
	var v vocab
	nWords := make([]int, len(values)) // distinct tokens summed over values, by side
	for s, vals := range values {
		ps := make([]Profile, len(vals))
		par.For(len(vals), func(lo, hi int) { profileValues(vals[lo:hi], fields, ps[lo:hi]) })
		n := 0
		for k := range ps {
			n += len(ps[k].Tokens)
		}
		ids := make([]uint32, n) // the column's ids, on TokenIDs until the ranks are read
		profs[s] = make([]*Profile, len(ps))
		for k := range ps {
			p := &ps[k]
			profs[s][k], p.TokenIDs = p, carve(&ids, len(p.Tokens))
			nWords[s] += v.add(p.Tokens, p.TokenIDs, rows[s][k])
		}
	}
	rank, idf := v.rank()
	var dicts []*TokenDict
	var ranks []uint64
	local := make([]uint32, len(v.words)) // 1 + the side's id; 0: unseen
	for s, ps := range profs {
		w := wordSlabs{ids: make([]uint64, nWords[s])}
		if fields&FieldTFIDF != 0 {
			w.vs, w.tf, w.fl = make([]WeightedVector, len(ps)), make([]int, nWords[s]), make([]float64, 2*nWords[s])
		}
		clear(local)
		dict, nRunes := []string(nil), 0
		for _, p := range ps {
			if fields&wordFields != 0 {
				ranks = ranks[:0]
				for _, id := range p.TokenIDs {
					ranks = append(ranks, rank[id])
				}
				w.attach(p, ranks, idf)
			}
			if fields&FieldTokenIDs == 0 {
				p.TokenIDs = nil
				continue
			}
			for i, id := range p.TokenIDs {
				if local[id] == 0 {
					dict = append(dict, v.words[id])
					nRunes += utf8.RuneCountInString(v.words[id])
					local[id] = uint32(len(dict))
				}
				p.TokenIDs[i] = local[id] - 1
			}
		}
		if fields&FieldTokenIDs != 0 {
			d, slab := &TokenDict{runes: make([][]rune, len(dict))}, make([]rune, nRunes)
			for k, t := range dict {
				d.runes[k] = carve(&slab, decodeRunes(slab, t))
			}
			dicts = append(dicts, d)
		}
	}
	return profs, dicts
}

// profileValues builds the corpus-independent views of values into out: a
// counting pass sizes one string for the Norms and one array each for the
// runes, tokens and grams exactly, and a second pass carves them. Tokens are
// substrings of Norm, appended into the slab (strutil.AppendWords).
func profileValues(values []string, fields Fields, out []Profile) {
	size := 0
	for _, raw := range values {
		size += strutil.NormalizeTo(nil, raw)
	}
	var b strings.Builder
	b.Grow(size)
	var nRunes, nTokens, nGrams int
	var tokens []string // one value's
	var grams []uint64  // one value's
	var set gramSet
	for k, raw := range values {
		p := &out[k]
		lo := b.Len() // b never regrows: every Norm is a substring of one string
		strutil.NormalizeTo(&b, raw)
		p.Raw, p.Norm = raw, b.String()[lo:]
		if fields&FieldRunes != 0 {
			nRunes += utf8.RuneCountInString(p.Norm)
		}
		if fields&tokenFields != 0 {
			tokens = strutil.AppendWords(tokens[:0], p.Norm)
			nTokens += len(tokens)
		}
		if fields&FieldQGrams != 0 {
			grams = strutil.Trigrams(grams[:0], p.Norm)
			nGrams += set.count(grams)
		}
		if fields&FieldNumeric != 0 {
			p.Numeric, p.NumericOK = strutil.ParseNumeric(raw)
		}
	}
	runeSlab, tokenSlab, gramSlab := make([]rune, nRunes), make([]string, nTokens), make([]uint64, nGrams)
	for k := range out {
		p := &out[k]
		if fields&FieldRunes != 0 {
			p.Runes = carve(&runeSlab, decodeRunes(runeSlab, p.Norm))
		}
		if fields&tokenFields != 0 {
			p.Tokens = carve(&tokenSlab, len(strutil.AppendWords(tokenSlab[:0], p.Norm)))
		}
		if fields&FieldQGrams != 0 {
			grams = strutil.Trigrams(grams[:0], p.Norm)
			slices.Sort(grams)
			p.Grams = carve(&gramSlab, distinct(gramSlab, grams))
		}
	}
}

// carve returns the next n elements of *slab, capacity-clipped, and advances
// the slab past them; nil for n == 0, so no view depends on where a chunk
// boundary fell.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// gramSet counts distinct grams without sorting them, by open addressing
// over slots that are live only under the current stamp.
type gramSet struct {
	keys  []uint64
	stamp []uint32
	now   uint32
}

func (g *gramSet) count(xs []uint64) int {
	if len(g.keys) < 2*len(xs) {
		g.keys, g.stamp = make([]uint64, 4<<bits.Len(uint(len(xs)))), make([]uint32, 4<<bits.Len(uint(len(xs))))
	}
	g.now++
	shift, n := 64-bits.Len(uint(len(g.keys)-1)), 0
	for _, x := range xs {
		h := int(x * 0x9e3779b97f4a7c15 >> shift)
		for g.stamp[h] == g.now && g.keys[h] != x {
			h = (h + 1) & (len(g.keys) - 1)
		}
		n += B2i(g.stamp[h] != g.now)
		g.stamp[h], g.keys[h] = g.now, x
	}
	return n
}

// distinct writes the distinct values of the ascending xs to dst (unless
// nil) and returns how many there are.
func distinct(dst, xs []uint64) int {
	n := 0
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			if dst != nil {
				dst[n] = x
			}
			n++
		}
	}
	return n
}

// decodeRunes writes []rune(s) to dst and returns its length.
func decodeRunes(dst []rune, s string) int {
	n := 0
	for _, r := range s {
		dst[n], n = r, n+1
	}
	return n
}

// vocab numbers the distinct tokens of a run of documents in first-seen
// order and counts the documents holding each.
type vocab struct {
	id         map[string]uint64
	words      []string // by id
	df, last   []int    // by id; last is the add that counted it last
	adds, docs int
}

// add counts one document held by weight rows, writes its tokens' ids to ids
// (unless nil) and returns how many distinct tokens it holds.
func (v *vocab) add(tokens []string, ids []uint32, weight int) int {
	v.adds, v.docs = v.adds+1, v.docs+weight
	d := 0
	for i, t := range tokens {
		id, ok := v.id[t]
		if !ok {
			if v.id == nil {
				v.id = make(map[string]uint64)
			}
			id = uint64(len(v.words))
			v.id[t] = id
			v.words, v.df, v.last = append(v.words, t), append(v.df, 0), append(v.last, 0)
		}
		if ids != nil {
			ids[i] = uint32(id)
		}
		if v.last[id] != v.adds {
			v.last[id] = v.adds
			v.df[id] += weight
			d++
		}
	}
	return d
}

// rank returns each id's rank in the sorted vocabulary — a function of the
// token set alone — and the IDFs log((docs+1)/(df+1)) by rank.
func (v *vocab) rank() (rank []uint64, idf []float64) {
	sorted := append([]string(nil), v.words...)
	slices.Sort(sorted)
	rank, idf = make([]uint64, len(sorted)), make([]float64, len(sorted))
	for r, t := range sorted {
		id := v.id[t]
		rank[id], idf[r] = uint64(r), math.Log(float64(v.docs+1)/float64(v.df[id]+1))
	}
	return rank, idf
}

// wordSlabs hold a run of profiles' word views, sized exactly: d distinct
// tokens take d WordIDs and, weighed (vs non-nil), a WeightedVector of d.
type wordSlabs struct {
	ids []uint64
	vs  []WeightedVector
	tf  []int
	fl  []float64
}

// attach gives p its word views from ranks, its tokens' vocabulary ranks
// (sorted here): WordIDs the distinct ranks and, weighed, their counts, IDFs
// and weights W = TF·IDF, with Σ W² accumulated in rank order.
func (w *wordSlabs) attach(p *Profile, ranks []uint64, idf []float64) {
	slices.Sort(ranks)
	d := distinct(nil, ranks)
	p.WordIDs = carve(&w.ids, d)
	distinct(p.WordIDs, ranks)
	if w.vs == nil {
		return
	}
	v := &carve(&w.vs, 1)[0]
	v.TF, v.IDF, v.W = carve(&w.tf, d), carve(&w.fl, d), carve(&w.fl, d)
	for i, j := 0, 0; i < len(ranks); i++ {
		j += B2i(i > 0 && ranks[i] != ranks[i-1])
		v.TF[j]++
	}
	for i, r := range p.WordIDs {
		x := float64(v.TF[i]) * idf[r]
		v.IDF[i], v.W[i] = idf[r], x
		v.Norm += x * x
	}
	p.TFIDF = v
}

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
// order under the build's only token map, and counts each value's distinct
// tokens; document frequencies (counting rows, as NewCorpus over every row's
// value would), ranks and IDFs then come from those ids through arrays. The
// counts place every value's word views in its side's slabs, so attachWords
// fills them chunk by chunk in parallel; the dictionaries, numbered in
// first-seen order, are the one pass left serial.
func BuildColumn(values [][]string, rows [][]int, fields Fields) ([][]*Profile, []*TokenDict) {
	profs := make([][]*Profile, len(values))
	at := make([][]int32, len(values)) // at[s][k]: where value k's word views start in side s's slabs
	var v vocab
	for s, vals := range values {
		ps := make([]Profile, len(vals))
		par.For(len(vals), func(lo, hi int) { profileValues(vals[lo:hi], fields, ps[lo:hi]) })
		n := 0
		for k := range ps {
			n += len(ps[k].Tokens)
		}
		ids := make([]uint32, n) // the column's ids, on TokenIDs until the ranks are read
		profs[s], at[s] = make([]*Profile, len(ps)), make([]int32, len(ps)+1)
		for k := range ps {
			p := &ps[k]
			profs[s][k], p.TokenIDs = p, carve(&ids, len(p.Tokens))
			at[s][k+1] = at[s][k] + int32(v.add(p.Tokens, p.TokenIDs, rows[s][k]))
		}
	}
	rank, idf := v.rank()
	var dicts []*TokenDict
	words := v.in.Values
	local := make([]uint32, len(words)) // 1 + the side's id; 0: unseen
	for s, ps := range profs {
		if fields&wordFields != 0 {
			attachWords(ps, at[s], rank, idf, fields&FieldTFIDF != 0)
		}
		if fields&FieldTokenIDs == 0 {
			for _, p := range ps {
				p.TokenIDs = nil
			}
			continue
		}
		clear(local)
		dict, nRunes := []string(nil), 0
		for _, p := range ps {
			for i, id := range p.TokenIDs {
				if local[id] == 0 {
					dict = append(dict, words[id])
					nRunes += utf8.RuneCountInString(words[id])
					local[id] = uint32(len(dict))
				}
				p.TokenIDs[i] = local[id] - 1
			}
		}
		d, slab := &TokenDict{runes: make([][]rune, len(dict))}, make([]rune, nRunes)
		for k, t := range dict {
			d.runes[k] = carve(&slab, decodeRunes(slab, t))
		}
		dicts = append(dicts, d)
	}
	return profs, dicts
}

// attachWords gives one side's profiles, their TokenIDs the column's ids,
// their word views under the ranks and IDFs, weighed or not: one par.For
// chunk at a time, each carving from its own stretch of slabs sized exactly
// for the side — value k's views start at word at[k], the side's end at
// at[len(ps)].
func attachWords(ps []*Profile, at []int32, rank []uint64, idf []float64, weighed bool) {
	n := int(at[len(ps)])
	all := wordSlabs{ids: make([]uint64, n)}
	if weighed {
		all.vs, all.tf, all.fl = make([]WeightedVector, len(ps)), make([]int, n), make([]float64, 2*n)
	}
	par.For(len(ps), func(lo, hi int) {
		w := all.from(lo, int(at[lo]))
		var ranks []uint64
		for _, p := range ps[lo:hi] {
			ranks = ranks[:0]
			for _, id := range p.TokenIDs {
				ranks = append(ranks, rank[id])
			}
			w.attach(p, ranks, idf)
		}
	})
}

// profileValues builds the corpus-independent views of values into out.
// Each value is normalized once, its runes and words counted as it goes and
// its distinct 3-grams through a stamped hash set, without sorting: a value
// that already is its normalization (strutil.NormalASCII, one table read a
// byte) is its own Norm, neither measured nor copied; the others are
// measured, then written to one strings.Builder grown to their exact total,
// each Norm a substring of the string it becomes. The counts size one array
// each for the runes, tokens and grams exactly, and a last pass fills them:
// runes decoded from Norm, tokens appended straight into the slab as
// substrings of Norm (strutil.AppendWords), grams taken from Norm, sorted
// and deduplicated into it.
func profileValues(values []string, fields Fields, out []Profile) {
	var nRunes, nTokens, nGrams int
	var grams []uint64 // one value's
	var set gramSet
	count := func(p *Profile, runes, words int) {
		nRunes += runes
		nTokens += words
		if fields&FieldQGrams != 0 {
			grams = strutil.Trigrams(grams[:0], p.Norm)
			nGrams += set.count(grams)
		}
	}
	size := 0 // the Norms that are not their Raw
	for k, raw := range values {
		p := &out[k]
		*p = Profile{Raw: raw}
		if fields&FieldNumeric != 0 {
			p.Numeric, p.NumericOK = strutil.ParseNumeric(raw)
		}
		if words, ok := strutil.NormalASCII(raw); ok {
			p.Norm = raw
			count(p, len(raw), words)
		} else {
			n, _, _ := strutil.NormalizeTo(nil, raw)
			size += n
		}
	}
	if size > 0 {
		var b strings.Builder
		b.Grow(size)
		for k, raw := range values {
			p := &out[k]
			if p.Norm != "" || raw == "" {
				continue
			}
			lo := b.Len() // b never regrows: every Norm is a substring of one string
			_, runes, words := strutil.NormalizeTo(&b, raw)
			p.Norm = b.String()[lo:]
			count(p, runes, words)
		}
	}
	if fields&FieldRunes == 0 {
		nRunes = 0
	}
	if fields&tokenFields == 0 {
		nTokens = 0
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
	in         strutil.Interner // the tokens by id: in.Values
	df, last   []int            // by id; last is the add that counted it last
	adds, docs int
}

// add counts one document held by weight rows, writes its tokens' ids to ids
// (unless nil) and returns how many distinct tokens it holds.
func (v *vocab) add(tokens []string, ids []uint32, weight int) int {
	v.adds, v.docs = v.adds+1, v.docs+weight
	d := 0
	for i, t := range tokens {
		id := v.in.ID(t)
		if int(id) == len(v.df) {
			v.df, v.last = append(v.df, 0), append(v.last, 0)
		}
		if ids != nil {
			ids[i] = id
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
	words := v.in.Values
	byRank := make([]uint32, len(words))
	for id := range byRank {
		byRank[id] = uint32(id)
	}
	slices.SortFunc(byRank, func(x, y uint32) int { return strings.Compare(words[x], words[y]) })
	rank, idf = make([]uint64, len(words)), make([]float64, len(words))
	for r, id := range byRank {
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

// from returns the slabs left for the values from the k-th on, whose word
// views start at word off.
func (w wordSlabs) from(k, off int) wordSlabs {
	w.ids = w.ids[off:]
	if w.vs != nil {
		w.vs, w.tf, w.fl = w.vs[k:], w.tf[off:], w.fl[2*off:]
	}
	return w
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

package similarity

import "testing"

// TestCosinePinnedScores pins Corpus.Cosine to exact values captured from the
// pre-optimization implementation (the one that re-sorted token maps and
// looked the IDF up twice per common token on every call). The optimized
// path — precomputed WeightedVectors, single IDF lookup, merged dot product —
// must reproduce these bit for bit, through both the string entry point and
// the profile fast path.
func TestCosinePinnedScores(t *testing.T) {
	docs := []string{
		"kingston hyperx 4gb kit 2 x 2gb ddr3 memory",
		"kingston 4 gb hyperx ddr3 kit",
		"corsair vengeance 8gb ddr3 memory kit",
		"seagate barracuda 1tb internal hard drive",
		"efficient scalable entity matching with crowdsourcing",
		"scalable crowdsourced entity resolution framework",
		"the quick brown fox jumps over the lazy dog",
	}
	cases := []struct {
		a, b string
		want float64
	}{
		{"kingston hyperx 4gb kit 2 x 2gb", "kingston 4 gb hyperx ddr3 kit", 0.29179685213030987},
		{"efficient scalable entity matching", "scalable entity resolution", 0.4085257302660658},
		{"the quick brown fox", "the lazy dog", 0.28867513459481287},
		{"kingston hyperx", "kingston hyperx", 1},
		{"corsair vengeance 8gb", "seagate barracuda 1tb", 0},
		{"unseen tokens entirely novel", "novel tokens unseen", 0.8660254037844386},
		{"", "", 0.5},
		{"kingston", "", 0},
		{"the the the kit kit", "the kit", 0.9899494936611667},
		{"4gb 2 x 2gb", "2gb x 2", 0.8660254037844386},
	}
	c := NewCorpus(docs)
	for _, cs := range cases {
		if got := c.Cosine(cs.a, cs.b); got != cs.want {
			t.Errorf("Cosine(%q, %q) = %v, want pinned %v", cs.a, cs.b, got, cs.want)
		}
	}
	// The profile path ranks tokens in a vocabulary, so the queries' unseen
	// tokens must be in it: a second corpus over docs plus the queries as
	// zero-weight extras would change every IDF. Instead pin the profile
	// path on the cases whose tokens the corpus knows.
	for _, cs := range cases {
		pa := NewProfile(cs.a, FieldTFIDF)
		pb := NewProfile(cs.b, FieldTFIDF)
		if !c.knows(pa) || !c.knows(pb) {
			continue
		}
		c.WeighProfile(pa)
		c.WeighProfile(pb)
		if got := CosineProfiles(pa, pb); got != cs.want {
			t.Errorf("CosineProfiles(%q, %q) = %v, want pinned %v", cs.a, cs.b, got, cs.want)
		}
	}
}

// knows reports whether every token of p is in the corpus vocabulary.
func (c *Corpus) knows(p *Profile) bool {
	for _, t := range p.Tokens {
		if _, ok := c.rank[t]; !ok {
			return false
		}
	}
	return true
}

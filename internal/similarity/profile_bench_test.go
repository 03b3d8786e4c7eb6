package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

var benchDocs = []string{
	"kingston hyperx 4gb kit 2 x 2gb ddr3 memory module",
	"kingston 4 gb hyperx ddr3 kit high performance",
	"corsair vengeance 8gb ddr3 memory kit for desktops",
	"seagate barracuda 1tb internal hard drive sata",
	"western digital caviar blue 500gb desktop drive",
	"efficient scalable entity matching with crowdsourcing",
	"scalable crowdsourced entity resolution framework",
	"the quick brown fox jumps over the lazy dog",
}

var sinkF float64

// BenchmarkCosineProfile measures the profile path: weighted vectors built
// once, each comparison is a linear merge over presorted tokens.
func BenchmarkCosineProfile(b *testing.B) {
	c := NewCorpus(benchDocs)
	profs := make([]*Profile, len(benchDocs))
	for i, d := range benchDocs {
		profs[i] = NewProfile(d, FieldTFIDF)
		c.WeighProfile(profs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = CosineProfiles(profs[i%len(profs)], profs[(i+3)%len(profs)])
	}
}

// BenchmarkEditSimStringMyers measures the shipping string path: per-call
// rune decode feeding the bit-parallel core.
func BenchmarkEditSimStringMyers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = EditSim(benchDocs[i%len(benchDocs)], benchDocs[(i+3)%len(benchDocs)])
	}
}

// BenchmarkEditSimProfile measures the profile path: predecoded runes and
// scratch-reused pattern tables through the Myers core — zero-alloc steady
// state.
func BenchmarkEditSimProfile(b *testing.B) {
	profs := make([]*Profile, len(benchDocs))
	for i, d := range benchDocs {
		profs[i] = NewProfile(d, FieldRunes)
	}
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = EditSimProfiles(profs[i%len(profs)], profs[(i+3)%len(profs)], s)
	}
}

// BenchmarkJaccardSets compares the integer merge with the retained string
// merge on word sets (8 tokens) and q-gram sets (60 grams), over enough
// distinct pairs that no branch predictor can learn them — the regime of a
// pair scan.
func BenchmarkJaccardSets(b *testing.B) {
	const sets = 4096
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{8, 60} {
		ints, strs := make([][]uint64, sets), make([][]string, sets)
		for k := range ints {
			for len(ints[k]) < n {
				ints[k] = append(ints[k], uint64(rng.Intn(50*n)))
			}
			slices.Sort(ints[k])
			ints[k] = slices.Compact(ints[k])
			for _, x := range ints[k] {
				strs[k] = append(strs[k], fmt.Sprintf("tok%06d", x))
			}
		}
		b.Run(fmt.Sprintf("ints/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = jaccardSorted(ints[i%sets], ints[(i*2654435761>>7)%sets])
			}
		})
		b.Run(fmt.Sprintf("strings/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = jaccardSortedStrings(strs[i%sets], strs[(i*2654435761>>7)%sets])
			}
		})
	}
}

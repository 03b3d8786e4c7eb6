package shard

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/corleone-em/corleone/internal/record"
)

// mergePairsRef is the reference merge: an O(K) linear head scan per
// emitted pair. It is the semantic oracle MergePairs is fuzzed and
// unit-tested against — slow, but obviously correct.
func mergePairsRef(dst []record.Pair, lists [][]record.Pair) []record.Pair {
	dst = dst[:0]
	heads := make([]int, len(lists))
	for {
		bestList := -1
		var best record.Pair
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			v := l[heads[i]]
			if bestList < 0 || v.A < best.A || (v.A == best.A && v.B < best.B) {
				best, bestList = v, i
			}
		}
		if bestList < 0 {
			return dst
		}
		heads[bestList]++
		dst = append(dst, best)
	}
}

// randLists builds k sorted pair lists from a seeded source — the shapes
// MergePairs actually sees (disjoint-ish ascending runs) plus overlapping
// ranges and exact cross-list duplicates to exercise the tie-break.
func randLists(rng *rand.Rand, k, maxLen int) [][]record.Pair {
	lists := make([][]record.Pair, k)
	for i := range lists {
		n := rng.Intn(maxLen + 1)
		l := make([]record.Pair, n)
		for j := range l {
			l[j] = record.Pair{A: int32(rng.Intn(40)), B: int32(rng.Intn(40))}
		}
		sort.Slice(l, func(x, y int) bool { return pairLess(l[x], l[y]) })
		lists[i] = l
	}
	return lists
}

func assertSameMerge(t *testing.T, name string, lists [][]record.Pair) {
	t.Helper()
	got := MergePairs(nil, lists)
	want := mergePairsRef(nil, lists)
	if len(got) != len(want) {
		t.Fatalf("%s: merged %d pairs, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestMergePairsMatchesRef drives the loser tree at K = 0..9 — an empty
// tree, a single leaf, and every tree shape up to 16 leaves — against the
// retained reference merge over seeded random inputs.
func TestMergePairsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for k := 0; k <= 9; k++ {
		for trial := 0; trial < 50; trial++ {
			assertSameMerge(t, "random", randLists(rng, k, 12))
		}
	}
	// Degenerate shapes: all lists empty, one long list among empties,
	// every list identical (maximal tie pressure on the index tie-break).
	assertSameMerge(t, "all-empty", make([][]record.Pair, 5))
	long := []record.Pair{{A: 1, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}}
	assertSameMerge(t, "one-long", [][]record.Pair{nil, long, nil, nil})
	assertSameMerge(t, "identical", [][]record.Pair{long, long, long, long, long})
}

// TestMergePairsReusesDst pins the allocation contract: a dst with enough
// capacity is reused, not reallocated.
func TestMergePairsReusesDst(t *testing.T) {
	lists := [][]record.Pair{
		{{A: 1, B: 1}}, {{A: 0, B: 5}}, {{A: 2, B: 2}},
	}
	dst := make([]record.Pair, 0, 16)
	out := MergePairs(dst, lists)
	if &out[:1][0] != &dst[:1][0] {
		t.Error("MergePairs reallocated a dst with sufficient capacity")
	}
}

// FuzzMergePairs compares the loser-tree merge against the reference on
// lists decoded from fuzz bytes. Lists are sorted first — the merge's
// input contract — but lengths, K, duplicates, and value ranges are all
// fuzz-chosen.
func FuzzMergePairs(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0]%9) + 1
		data = data[1:]
		lists := make([][]record.Pair, k)
		for i := 0; len(data) >= 2; i = (i + 1) % k {
			lists[i] = append(lists[i], record.Pair{A: int32(data[0] % 32), B: int32(data[1] % 32)})
			data = data[2:]
		}
		for _, l := range lists {
			sort.Slice(l, func(x, y int) bool { return pairLess(l[x], l[y]) })
		}
		assertSameMerge(t, "fuzz", lists)
	})
}

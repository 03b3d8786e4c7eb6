package shard

import (
	"slices"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// TestPartitionDisjointCovering pins the partitioner's contract: at every
// K, the shards are ascending, pairwise disjoint, and cover [0, n).
func TestPartitionDisjointCovering(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 7, 1000} {
			parts := Partition(n, k)
			if len(parts) != k {
				t.Fatalf("Partition(%d,%d): %d shards", n, k, len(parts))
			}
			seen := make([]bool, n)
			for s, rows := range parts {
				prev := int32(-1)
				for _, r := range rows {
					if r <= prev {
						t.Fatalf("k=%d shard %d not ascending at row %d", k, s, r)
					}
					prev = r
					if seen[r] {
						t.Fatalf("k=%d row %d in two shards", k, r)
					}
					seen[r] = true
					if Assign(r, k) != s {
						t.Fatalf("k=%d row %d in shard %d but Assign says %d", k, r, s, Assign(r, k))
					}
				}
			}
			for r, ok := range seen {
				if !ok {
					t.Fatalf("k=%d row %d unassigned", k, r)
				}
			}
		}
	}
}

// TestAssignStable pins the hash: the same (row, k) maps identically on
// every call — the property that lets any process place any record.
func TestAssignStable(t *testing.T) {
	for r := int32(0); r < 1000; r++ {
		for _, k := range []int{1, 2, 8} {
			a, b := Assign(r, k), Assign(r, k)
			if a != b || a < 0 || a >= k {
				t.Fatalf("Assign(%d,%d) unstable or out of range: %d, %d", r, k, a, b)
			}
		}
	}
}

// TestChoose: a configured count is honoured up to the cap, and 0 or a
// negative count is one shard.
func TestChoose(t *testing.T) {
	cases := []struct{ configured, want int }{
		{1, 1},
		{0, 1},
		{-3, 1},
		{4, 4},
		{maxShards, maxShards},
		{maxShards + 1, maxShards},
		{1 << 28, maxShards},
	}
	for _, c := range cases {
		if got := Choose(c.configured); got != c.want {
			t.Errorf("Choose(%d) = %d, want %d", c.configured, got, c.want)
		}
	}
}

func TestMergePairs(t *testing.T) {
	lists := [][]record.Pair{
		{record.P(0, 1), record.P(1, 0)},
		{record.P(0, 0), record.P(0, 2), record.P(2, 0)},
		nil,
	}
	want := []record.Pair{record.P(0, 0), record.P(0, 1), record.P(0, 2), record.P(1, 0), record.P(2, 0)}
	got := MergePairs(nil, lists)
	if len(got) != len(want) {
		t.Fatalf("merged %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// featureByKind returns the index of the first feature with the given
// measure kind, or -1.
func featureByKind(ex *feature.Extractor, kind string) int {
	for i, f := range ex.Features() {
		if f.Kind == kind {
			return i
		}
	}
	return -1
}

// TestGroupCandidatesCompleteness pins the sharded index against the
// truth: for every probe, the union of the per-shard candidate lists must
// contain every row that can actually qualify (each list is a superset of
// its shard's truth and may over-approximate, so the check verifies the
// true survivors are covered, not raw equality), each list ascending in
// global row ids and the lists pairwise disjoint.
func TestGroupCandidatesCompleteness(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))
	ex := feature.NewExtractor(ds)
	f := featureByKind(ex, "jaccard_w")
	if f < 0 {
		t.Fatal("no jaccard_w feature")
	}
	profA, profB := ex.Profiles(f)
	theta := 0.4
	for _, k := range []int{1, 2, 3, 8} {
		g := BuildGroup(simindex.JaccardWords, profB, k)
		if g.K() != k {
			t.Fatalf("K() = %d, want %d", g.K(), k)
		}
		is := simindex.NewScratch()
		var cand []int32
		for a := 0; a < len(profA); a++ {
			inCand := make(map[int32]bool)
			for s := 0; s < k; s++ {
				// The shard answers in local ids; its row map makes them global.
				cand = cand[:0]
				for _, l := range g.Shard(s).Candidates([]*similarity.Profile{profA[a]}, []float64{theta}, is) {
					cand = append(cand, g.Shard(s).rows[l])
				}
				// Ascending within the shard, no row in two shards.
				for i, b := range cand {
					if i > 0 && b <= cand[i-1] {
						t.Fatalf("k=%d probe %d shard %d: candidates not strictly ascending", k, a, s)
					}
					if inCand[b] {
						t.Fatalf("k=%d probe %d: row %d is a candidate of two shards", k, a, b)
					}
					inCand[b] = true
				}
			}
			// Complete: every row whose similarity truly exceeds theta is
			// in some shard's candidate list.
			for b := 0; b < len(profB); b++ {
				if ex.Compute(f, record.P(a, b)) > theta && !inCand[int32(b)] {
					t.Fatalf("k=%d: true candidate (%d,%d) missing", k, a, b)
				}
			}
		}
		if k > 1 {
			var total int64
			for s := 0; s < k; s++ {
				total += g.Shard(s).Footprint()
			}
			if g.MaxShardFootprint() >= total {
				t.Errorf("k=%d: max shard footprint %d not below total %d",
					k, g.MaxShardFootprint(), total)
			}
		}
	}
}

// TestRowSurvivorsMatchesSurvives pins the Verifier to the per-pair oracle:
// a row of table A against a run — all of table B, then a subset too short
// for columns — keeps exactly the pairs pairWalk.Survives keeps one by one,
// under rules that mix set measures (read from columns), a tabled and a
// character measure (computed per pair), both operators, and a feature two
// rules share.
func TestRowSurvivorsMatchesSurvives(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.02))
	ex := feature.NewExtractor(ds)
	feat := map[string]int{}
	for i, n := range ex.Names() {
		feat[n] = i
	}
	pred := func(name string, op tree.Op, thr float64) tree.Predicate {
		f, ok := feat[name]
		if !ok {
			t.Fatalf("no feature %s", name)
		}
		return tree.Predicate{Feature: f, Op: op, Threshold: thr}
	}
	rules := []tree.Rule{
		{Preds: []tree.Predicate{pred("title_jaccard_w", tree.LE, 0.2), pred("authors_jaccard_3g", tree.LE, 0.15)}},
		{Preds: []tree.Predicate{pred("venue_jaccard_3g", tree.LE, 0.1), pred("title_tfidf_cos", tree.LE, 0.3), pred("authors_jaro_winkler", tree.LE, 0.6)}},
		{Preds: []tree.Predicate{pred("title_overlap_w", tree.GT, 0.1), pred("title_jaccard_w", tree.LE, 0.05)}},
	}
	all := make([]int32, ds.B.Len())
	for i := range all {
		all[i] = int32(i)
	}
	ref := newPairWalk(ex, rules)
	v := NewVerifier(ex, rules)
	survivors := 0
	for _, bs := range [][]int32{all, all[7:40]} {
		run := ex.NewRun(bs)
		var got []record.Pair
		for a := 0; a < ds.A.Len(); a++ {
			got = v.RowSurvivors(got[:0], int32(a), run, run.Positions())
			var want []record.Pair
			for _, b := range bs {
				if p := (record.Pair{A: int32(a), B: b}); ref.Survives(p) {
					want = append(want, p)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("row %d over %d rows: RowSurvivors %v, Survives %v", a, len(bs), got, want)
			}
			survivors += len(got)
		}
	}
	if survivors == 0 {
		t.Fatal("no pair survives: the rules exercise nothing")
	}
}

package ruleeval

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/stats"
	"github.com/corleone-em/corleone/internal/tree"
)

// This file keeps the implementations row sets replaced — a serial scan
// growing one []int per rule, and joint evaluation over map[int]bool /
// map[int][]int rebuilt every round — as the oracles the bitset code is
// compared against. They are the code as it stood, on []int coverages.

// Cover is the reference coverage: the covered rows in ascending order.
func Cover(r tree.Rule, X [][]float64) []int {
	var out []int
	for i, v := range X {
		if r.Matches(v) {
			out = append(out, i)
		}
	}
	return out
}

type refCandidate struct {
	Rule     tree.Rule
	Coverage []int
}

// refResult is Result without the candidate's coverage representation.
type refResult struct {
	Rule      tree.Rule
	Precision stats.Interval
	Kept      bool
	Sampled   int
}

func evaluateJointRef(rng *rand.Rand, runner *crowd.Runner, pairs []record.Pair,
	cands []refCandidate, cfg Config) []refResult {

	cfg = cfg.withDefaults()
	results := make([]refResult, len(cands))
	type state struct {
		n, correct int
		done       bool
	}
	states := make([]state, len(cands))
	labeledSet := map[int]bool{}
	covers := map[int][]int{}
	for ci, c := range cands {
		for _, idx := range c.Coverage {
			covers[idx] = append(covers[idx], ci)
		}
	}
	absorb := func(idx int, match bool) {
		labeledSet[idx] = true
		for _, ci := range covers[idx] {
			if states[ci].done {
				continue
			}
			states[ci].n++
			if match == cands[ci].Rule.Positive {
				states[ci].correct++
			}
		}
	}
	decide := func(ci int) bool {
		st := &states[ci]
		m := len(cands[ci].Coverage)
		iv := stats.EstimateProportion(st.correct, st.n, m)
		results[ci].Precision = iv
		results[ci].Sampled = st.n
		switch {
		case iv.Point >= cfg.PMin && iv.Margin <= EpsMax:
			results[ci].Kept = true
			st.done = true
		case iv.Point+iv.Margin < cfg.PMin:
			st.done = true
		case iv.Margin <= EpsMax && iv.Point < cfg.PMin:
			st.done = true
		case st.n >= m:
			results[ci].Kept = iv.Point >= cfg.PMin
			st.done = true
		}
		return st.done
	}
	for ci := range cands {
		results[ci].Rule = cands[ci].Rule
	}
	for {
		poolSet := map[int]bool{}
		for ci, c := range cands {
			if states[ci].done {
				continue
			}
			for _, idx := range c.Coverage {
				if !labeledSet[idx] {
					poolSet[idx] = true
				}
			}
		}
		if len(poolSet) == 0 {
			break
		}
		pool := make([]int, 0, len(poolSet))
		for idx := range poolSet {
			pool = append(pool, idx)
		}
		sort.Ints(pool)
		for _, j := range stats.SampleIndices(rng, len(pool), Batch) {
			idx := pool[j]
			match := runner.Label(pairs[idx], Policy)
			absorb(idx, match)
		}
		active := 0
		for ci := range cands {
			if states[ci].done {
				continue
			}
			if !decide(ci) {
				active++
			}
		}
		if active == 0 {
			break
		}
		if runner.Stopped() {
			break
		}
	}
	for ci := range cands {
		if results[ci].Sampled == 0 && states[ci].n > 0 {
			decide(ci)
		}
	}
	return results
}

// scriptedCrowd answers from a fixed per-pair script that errs on some
// pairs' first answers (so the hybrid policy escalates), and records every
// question in order.
type scriptedCrowd struct {
	seed  int64
	asked []record.Pair
	times map[record.Pair]int
}

func (c *scriptedCrowd) Answer(p record.Pair) bool {
	c.asked = append(c.asked, p)
	k := c.times[p]
	c.times[p] = k + 1
	h := uint64(c.seed)*0x9e3779b97f4a7c15 + uint64(p.A)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	truth := h%5 != 0     // ~80% of rows are true matches of their (positive) rule
	flip := (h>>8)%7 == 0 // ~14% of rows get a wrong first answer
	return truth != (flip && k == 0)
}

// TestEvaluateJointMatchesReference drives the bitset EvaluateJoint and the
// retained map-based one through the same random rule sets — empty,
// overlapping and universe-sized coverages, coverages of one batch less,
// exactly and one more than a multiple of Batch, both polarities, the
// runner's Stop hook firing part-way — and requires identical results, an
// identical sequence of crowd questions, and an identical RNG position
// afterwards.
func TestEvaluateJointMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		gen := rand.New(rand.NewSource(seed))
		n := []int{1, 63, 64, 65, 200, 1000, 5000}[gen.Intn(7)]
		pairs := make([]record.Pair, n)
		for i := range pairs {
			pairs[i] = record.P(i, i)
		}
		var ref []refCandidate
		var cands []Candidate
		for k := 1 + gen.Intn(8); k > 0; k-- {
			var cov []int
			switch gen.Intn(6) {
			case 0: // empty
			case 1: // the whole universe
				for i := 0; i < n; i++ {
					cov = append(cov, i)
				}
			case 2: // a contiguous band, overlapping its neighbours
				lo := gen.Intn(n)
				for i, hi := lo, lo+1+gen.Intn(n); i < n && i < hi; i++ {
					cov = append(cov, i)
				}
			case 3: // a band one row short of, at or past a multiple of Batch
				size := Batch*(1+gen.Intn(3)) + gen.Intn(3) - 1
				for i := gen.Intn(max(1, n-size+1)); i < n && len(cov) < size; i++ {
					cov = append(cov, i)
				}
			default: // a random subset of random density
				d := gen.Float64()
				for i := 0; i < n; i++ {
					if gen.Float64() < d {
						cov = append(cov, i)
					}
				}
			}
			rule := tree.Rule{Positive: gen.Intn(2) == 0, LeafPos: k}
			ref = append(ref, refCandidate{Rule: rule, Coverage: cov})
			cands = append(cands, Candidate{Rule: rule, Coverage: rowsOf(n, cov...)})
		}
		cfg := Defaults()
		stopAfter := gen.Intn(6) // 0: never

		run := func(eval func(*rand.Rand, *crowd.Runner, Config) []refResult) ([]refResult, []record.Pair, int64) {
			c := &scriptedCrowd{seed: seed, times: map[record.Pair]int{}}
			rng := rand.New(rand.NewSource(seed * 17))
			runner := crowd.NewRunner(c, 0.01)
			if stopAfter > 0 {
				polls := 0
				runner.Stop = func() bool { polls++; return polls >= stopAfter }
			}
			out := eval(rng, runner, cfg)
			return out, c.asked, rng.Int63()
		}
		want, wantAsked, wantRNG := run(func(rng *rand.Rand, r *crowd.Runner, cfg Config) []refResult {
			return evaluateJointRef(rng, r, pairs, ref, cfg)
		})
		got, gotAsked, gotRNG := run(func(rng *rand.Rand, r *crowd.Runner, cfg Config) []refResult {
			var out []refResult
			for i, res := range EvaluateJoint(rng, r, pairs, cands, cfg) {
				if res.Candidate.Coverage != cands[i].Coverage {
					t.Errorf("seed %d: result %d carries a different coverage than its candidate", seed, i)
				}
				out = append(out, refResult{Rule: res.Candidate.Rule, Precision: res.Precision,
					Kept: res.Kept, Sampled: res.Sampled})
			}
			return out
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (n=%d): results differ\n got %+v\nwant %+v", seed, n, got, want)
		}
		if !reflect.DeepEqual(gotAsked, wantAsked) {
			t.Errorf("seed %d (n=%d): crowd question sequence differs (%d vs %d questions)",
				seed, n, len(gotAsked), len(wantAsked))
		}
		if gotRNG != wantRNG {
			t.Errorf("seed %d (n=%d): RNG position differs after the call", seed, n)
		}
	}
}

// TestMakeCandidatesIndependentOfParallelism checks the parallel block
// build against the serial reference scan at several worker counts: same
// rules kept, same rows covered, and values that compare DeepEqual (so no
// stray bit or stale count hides in the representation).
func TestMakeCandidatesIndependentOfParallelism(t *testing.T) {
	gen := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000, 4099} {
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{gen.Float64(), gen.Float64(), float64(gen.Intn(3)) - 1}
		}
		var rules []tree.Rule
		for k := 0; k < 40; k++ {
			var r tree.Rule
			for p := gen.Intn(4); p > 0; p-- { // zero predicates covers everything
				r.Preds = append(r.Preds, tree.Predicate{Feature: gen.Intn(3),
					Op: tree.Op(gen.Intn(2)), Threshold: 1.2*gen.Float64() - 0.1})
			}
			r.Positive = gen.Intn(2) == 0
			rules = append(rules, r)
		}
		var want []refCandidate
		for _, r := range rules {
			if cov := Cover(r, X); len(cov) > 0 {
				want = append(want, refCandidate{Rule: r, Coverage: cov})
			}
		}
		var first []Candidate
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			got := MakeCandidates(rules, X)
			runtime.GOMAXPROCS(old)
			if len(got) != len(want) {
				t.Fatalf("n=%d procs=%d: %d candidates, want %d", n, procs, len(got), len(want))
			}
			for i, c := range got {
				if !reflect.DeepEqual(c.Rule, want[i].Rule) ||
					!reflect.DeepEqual(c.Coverage.AppendTo(nil), want[i].Coverage) ||
					c.Coverage.Len() != len(want[i].Coverage) || c.Coverage.Universe() != n {
					t.Fatalf("n=%d procs=%d: candidate %d differs from the reference scan", n, procs, i)
				}
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("n=%d procs=%d: candidates not DeepEqual to the GOMAXPROCS=1 build", n, procs)
			}
		}
	}
}

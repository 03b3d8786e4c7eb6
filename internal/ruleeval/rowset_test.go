package ruleeval

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/corleone-em/corleone/internal/stats"
)

// checkRowSet compares s with its map reference and checks the two
// representation invariants DeepEqual relies on: no bit at or above the
// universe size, and a count equal to the number of set bits.
func checkRowSet(t *testing.T, what string, s *RowSet, ref map[int]bool, n int) {
	t.Helper()
	if s.Universe() != n || s.Len() != len(ref) {
		t.Fatalf("%s: %d rows over %d, want %d over %d", what, s.Len(), s.Universe(), len(ref), n)
	}
	want := make([]int, 0, len(ref))
	for i := range ref {
		want = append(want, i)
	}
	sort.Ints(want)
	if got := s.AppendTo([]int{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rows %v, want %v", what, got, want)
	}
	for i := 0; i < n; i++ {
		if s.Has(i) != ref[i] {
			t.Fatalf("%s: Has(%d) = %v, want %v", what, i, s.Has(i), ref[i])
		}
	}
	if len(s.words) != (n+63)/64 {
		t.Fatalf("%s: %d words for %d rows", what, len(s.words), n)
	}
	pop := 0
	for wi, w := range s.words {
		pop += bits.OnesCount64(w)
		if wi == len(s.words)-1 && n%64 != 0 && w>>uint(n%64) != 0 {
			t.Fatalf("%s: bit set at or above the universe size %d", what, n)
		}
	}
	if pop != s.count {
		t.Fatalf("%s: cached count %d, %d bits set", what, s.count, pop)
	}
}

// FuzzRowSet drives two row sets through a byte-coded program of
// add/or/and/and-not/set/clear/clone steps beside map[int]bool references,
// checking every observable (count, membership, ascending iteration,
// intersection count) and the representation invariants after each step,
// then RowSampler.Draw on the final set against the dense draw over its
// ascending enumeration.
func FuzzRowSet(f *testing.F) {
	for _, n := range []uint8{0, 1, 63, 64, 65, 200} {
		f.Add(n, []byte{0, 3, 1, 7, 2, 0, 0, 62, 3, 0, 4, 0, 1, 64, 5, 0, 6, 0, 7, 0})
	}
	f.Fuzz(func(t *testing.T, size uint8, prog []byte) {
		n := int(size)
		a, b := NewRowSet(n), FullRowSet(n)
		ra, rb := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			rb[i] = true
		}
		checkRowSet(t, "empty", a, ra, n)
		checkRowSet(t, "full", b, rb, n)
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%8, int(prog[pc+1])
			switch op {
			case 0, 1: // add a row to a (0) or b (1)
				if n == 0 {
					continue
				}
				if op == 0 {
					a.Add(arg % n)
					ra[arg%n] = true
				} else {
					b.Add(arg % n)
					rb[arg%n] = true
				}
			case 2:
				a.Or(b)
				for i := range rb {
					ra[i] = true
				}
			case 3:
				a.And(b)
				for i := range ra {
					if !rb[i] {
						delete(ra, i)
					}
				}
			case 4:
				a.AndNot(b)
				for i := range rb {
					delete(ra, i)
				}
			case 5: // swap roles, so b gets operated on too
				a, b, ra, rb = b, a, rb, ra
			case 6:
				if arg%2 == 0 {
					a.Clear()
					ra = map[int]bool{}
				} else {
					a.Set(b)
					ra = map[int]bool{}
					for i := range rb {
						ra[i] = true
					}
				}
			case 7: // a clone is equal and independent
				c := a.Clone()
				if !reflect.DeepEqual(c, a) {
					t.Fatal("clone not DeepEqual to its source")
				}
				if n > 0 {
					c.Add(arg % n)
				}
			}
			both := 0
			for i := range ra {
				if rb[i] {
					both++
				}
			}
			if got := a.AndCount(b); got != both {
				t.Fatalf("step %d: AndCount = %d, want %d", pc/2, got, both)
			}
			checkRowSet(t, "a", a, ra, n)
			checkRowSet(t, "b", b, rb, n)
		}
		// Equal sets built by different routes are DeepEqual.
		c := NewRowSet(n)
		for i := range ra {
			c.Add(i)
		}
		if !reflect.DeepEqual(c, a) {
			t.Fatal("same rows, different representation")
		}
		// Draw is the dense draw over the ascending enumeration.
		var d RowSampler
		for _, k := range []int{0, 1, a.Len() / 2, a.Len(), a.Len() + 1} {
			checkDraw(t, &d, int64(len(prog)), a, k)
		}
	})
}

// checkDraw compares d.Draw with its definition — the set's ascending
// enumeration sampled by the dense stats.SampleIndicesInto — on a fresh rng
// of the given seed: the same rows in the same order, and the rng left at
// the same state.
func checkDraw(t *testing.T, d *RowSampler, seed int64, s *RowSet, k int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := s.AppendTo(nil)
	want := stats.SampleIndicesInto(rng, len(rows), k, make([]int, len(rows)))
	for i, j := range want {
		want[i] = rows[j]
	}
	next := rng.Int63()
	rng = rand.New(rand.NewSource(seed))
	if got := d.Draw(rng, s, k); !slices.Equal(got, want) || rng.Int63() != next {
		t.Fatalf("%d of %d rows over %d: Draw gives %v, want %v (or the rng is left elsewhere)",
			k, s.Len(), s.Universe(), got, want)
	}
}

// TestRowSamplerMatchesDense draws every k up to 70 from sets over every
// universe up to 70 rows, at three densities, and random batches from large
// sets, with one sampler throughout so its reused buffers are tested too.
func TestRowSamplerMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var d RowSampler
	for n := 0; n <= 70; n++ {
		for _, density := range []int{1, 2, 5} {
			s := NewRowSet(n)
			for i := 0; i < n; i++ {
				if rng.Intn(density) == 0 {
					s.Add(i)
				}
			}
			for k := 0; k <= 70; k++ {
				checkDraw(t, &d, int64(n*71+k), s, k)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300000)
		s := NewRowSet(n)
		for i := rng.Intn(7); i < n; i += 1 + rng.Intn(1+trial) {
			s.Add(i)
		}
		checkDraw(t, &d, int64(trial), s, rng.Intn(120))
	}
}

// TestRowSamplerDrawZeroAllocs pins the sampler's steady state: once its
// buffers have grown, a draw from a 200k-row set allocates nothing.
func TestRowSamplerDrawZeroAllocs(t *testing.T) {
	s := NewRowSet(200000)
	for i := 0; i < s.Universe(); i += 3 {
		s.Add(i)
	}
	rng := rand.New(rand.NewSource(1))
	var d RowSampler
	d.Draw(rng, s, 50) // grow the buffers
	for _, k := range []int{Batch, 50} {
		if n := testing.AllocsPerRun(100, func() { d.Draw(rng, s, k) }); n != 0 {
			t.Errorf("Draw of %d rows allocates %.1f per call in steady state, want 0", k, n)
		}
	}
}

func TestRowSetRejectsForeignRows(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Add past the universe", func() { NewRowSet(10).Add(10) })
	mustPanic("Add in the last word's slack", func() { NewRowSet(65).Add(100) })
	mustPanic("Or across universes", func() { NewRowSet(10).Or(NewRowSet(11)) })
	mustPanic("AndCount across universes", func() { NewRowSet(64).AndCount(NewRowSet(128)) })
}

package simindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/corleone-em/corleone/internal/similarity"
)

// vocab skews token frequencies so some tokens are common and some rare,
// like real attribute values.
var vocab = []string{
	"kingston", "hyperx", "corsair", "vengeance", "seagate", "barracuda",
	"western", "digital", "caviar", "blue", "memory", "kit", "ddr3", "4gb",
	"8gb", "1tb", "500gb", "drive", "desktop", "module", "sata", "internal",
	"performance", "high", "the", "for", "x",
}

// genValues builds n random attribute values (some empty, some punctuation-
// only so the token set is empty while the value is present).
func genValues(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.05:
			out[i] = "" // missing
		case r < 0.10:
			out[i] = "--- !!!" // present, token-less
		default:
			k := 1 + rng.Intn(7)
			s := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					s += " "
				}
				s += vocab[rng.Intn(len(vocab))]
			}
			out[i] = s
		}
	}
	return out
}

// buildProfiles profiles each column of values and weighs them all under
// one corpus, one document per value — the word ranks the index keys on
// only compare within one vocabulary, so probes are built together with the
// rows they probe.
func buildProfiles(cols ...[]string) [][]*similarity.Profile {
	rows := make([][]int, len(cols))
	for c, vals := range cols {
		rows[c] = make([]int, len(vals))
		for i := range rows[c] {
			rows[c][i] = 1
		}
	}
	profs, _ := similarity.BuildColumn(cols, rows, similarity.AllFields)
	return profs
}

// exact computes the measure the index accelerates, mirroring the feature
// layer's missing-value gate (Norm == "" on either side → Missing = −1).
func exact(kind Kind, a, b *similarity.Profile) float64 {
	if a.Norm == "" || b.Norm == "" {
		return -1
	}
	switch kind {
	case JaccardWords:
		return similarity.JaccardWordsProfiles(a, b)
	case JaccardQGrams:
		return similarity.JaccardQGramsProfiles(a, b)
	case OverlapWords:
		return similarity.OverlapWordsProfiles(a, b)
	case CosineTFIDF:
		return similarity.CosineProfiles(a, b)
	}
	panic("unknown kind")
}

// TestCandidatesComplete is the core guarantee: for every probe and every
// threshold, the candidate set contains every row whose exact similarity
// strictly exceeds θ.
func TestCandidatesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valsA := genValues(rng, 60)
	valsB := genValues(rng, 80)
	profs := buildProfiles(valsA, valsB)
	profA, profB := profs[0], profs[1]

	thetas := []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.6, 2.0 / 3, 0.75, 0.9, 0.999, 1}
	for _, kind := range []Kind{JaccardWords, JaccardQGrams, OverlapWords, CosineTFIDF} {
		ix := Build(kind, profB)
		s := NewScratch()
		for _, theta := range thetas {
			for ai, pa := range profA {
				cands := ix.Candidates(pa, theta, s)
				inCand := map[int32]bool{}
				for _, r := range cands {
					inCand[r] = true
				}
				for bi, pb := range profB {
					if sim := exact(kind, pa, pb); sim > theta && !inCand[int32(bi)] {
						t.Fatalf("kind=%d θ=%g: probe %d (%q) misses row %d (%q) with sim %g",
							kind, theta, ai, valsA[ai], bi, valsB[bi], sim)
					}
				}
			}
		}
	}
}

// TestCandidatesSortedAndDeduped pins the output contract the blocker's
// deterministic emission relies on.
func TestCandidatesSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	valsB := genValues(rng, 100)
	profs := buildProfiles(valsB, []string{"kingston hyperx memory kit ddr3"})
	ix := Build(JaccardWords, profs[0])
	s := NewScratch()
	probe := profs[1][0]
	cands := ix.Candidates(probe, 0, s)
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatalf("candidates not strictly ascending at %d: %v", i, cands)
		}
	}
}

// TestCandidatesPrune checks the filters actually prune: at a high
// threshold the candidate count must be well below "every row sharing a
// token" (otherwise the index is correct but useless).
func TestCandidatesPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	valsB := genValues(rng, 400)
	profs := buildProfiles(valsB, []string{"kingston hyperx"})
	ix := Build(JaccardWords, profs[0])
	s := NewScratch()
	probe := profs[1][0]

	loose := len(ix.Candidates(probe, 0, s))
	tight := len(ix.Candidates(probe, 0.9, s))
	if loose == 0 {
		t.Fatal("probe found no rows at θ=0; vocabulary too sparse for the test")
	}
	if tight >= loose {
		t.Errorf("θ=0.9 candidates (%d) not fewer than θ=0 candidates (%d)", tight, loose)
	}
}

// TestMissingAndEmptyValues pins the sentinel semantics: missing values are
// never candidates and never probe anything; token-less values pair only
// with each other.
func TestMissingAndEmptyValues(t *testing.T) {
	vals := []string{"kingston kit", "", "!!!", "hyperx kit"}
	profs := buildProfiles(vals)[0]
	ix := Build(JaccardWords, profs)
	s := NewScratch()

	if got := ix.Candidates(profs[1], 0, s); len(got) != 0 {
		t.Errorf("missing probe returned candidates %v", got)
	}
	got := ix.Candidates(profs[2], 0, s)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("token-less probe: got %v, want [2] (the other token-less row)", got)
	}
	// A tokenful probe must never see the missing row (1).
	for _, r := range ix.Candidates(profs[0], 0, s) {
		if r == 1 {
			t.Error("missing row returned as candidate")
		}
	}
}

// numeric is a profile holding a parsed numeric, as the feature layer's
// FieldNumeric view does; ok false is a missing or unparseable value.
func numeric(v float64, ok bool) *similarity.Profile {
	return &similarity.Profile{Numeric: v, NumericOK: ok}
}

// relDiffKept mirrors the feature layer's rel_diff (Missing = −1 when either
// side has no numeric) and the rule predicate "rel_diff ≤ θ → No": a pair is
// kept unless the predicate holds, which a NaN score never lets it.
func relDiffKept(a, b *similarity.Profile, theta float64) bool {
	sim := -1.0
	if a.NumericOK && b.NumericOK {
		sim = similarity.RelativeDiff(a.Numeric, b.Numeric)
	}
	return !(sim <= theta)
}

// checkBand asserts the band index's contract for every probe: candidates
// ascending, duplicate-free, and holding every row the predicate keeps.
func checkBand(t *testing.T, probes, rows []*similarity.Profile, theta float64) {
	t.Helper()
	ix := Build(BandRelDiff, rows)
	s := NewScratch()
	for ai, pa := range probes {
		cands := ix.Candidates(pa, theta, s)
		for i := 1; i < len(cands); i++ {
			if cands[i] <= cands[i-1] {
				t.Fatalf("θ=%g probe %d (%v): candidates not strictly ascending: %v", theta, ai, pa.Numeric, cands)
			}
		}
		for bi, pb := range rows {
			_, in := slices.BinarySearch(cands, int32(bi))
			if relDiffKept(pa, pb, theta) && !in {
				t.Fatalf("θ=%g: probe %d (%v, ok=%v) misses row %d (%v, ok=%v)",
					theta, ai, pa.Numeric, pa.NumericOK, bi, pb.Numeric, pb.NumericOK)
			}
			if !pb.NumericOK && in {
				t.Fatalf("θ=%g: probe %d: missing row %d returned as a candidate", theta, ai, bi)
			}
		}
		if !pa.NumericOK && len(cands) != 0 {
			t.Fatalf("θ=%g: missing probe %d returned candidates %v", theta, ai, cands)
		}
	}
}

// bandThetas are the thresholds the band is pinned at: the ends of [0, 1],
// their immediate neighbours, the middle, and the two the Products
// benchmark instances learn.
var bandThetas = []float64{0, 1e-12, 0.5, 0.9539, 0.9677, 1 - 1e-12, 1}

// TestBandCandidatesComplete is the band kind's completeness guarantee by
// brute force against similarity.RelativeDiff, over every pair of a value
// set chosen for its edges: negatives, both zeros, equal values, values a
// rounding apart, the extremes of the exponent range, non-finite values,
// strings that parse to nothing, and missing values.
func TestBandCandidatesComplete(t *testing.T) {
	var profs []*similarity.Profile
	for _, raw := range []string{
		"", "n/a", "NaN", "Inf", "-Inf", "1e999", "$", "12 apples",
		"0", "-0", "1", "1", "1.0000000000000002", "2", "$19.99", "20.95", "21",
		"-1", "-19.99", "-1e300", "1e-300", "2e-300", "1e300", "9e299", "5e-324",
		"1,299.00", "1299", "1238.6", "1361.9", "0.5", "0.25",
	} {
		profs = append(profs, similarity.NewProfile(raw, similarity.FieldNumeric))
	}
	// ParseNumeric yields no NaN or infinity today; the index must not rely
	// on that.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		profs = append(profs, numeric(v, true))
	}
	profs = append(profs, numeric(7, false))
	for _, theta := range bandThetas {
		checkBand(t, profs, profs, theta)
	}
}

// TestBandBoundaryRounding aims at the one place the band could lose a row:
// values within a few ulps of the band's ends, where the computed score and
// the exact ratio can fall on different sides of θ.
func TestBandBoundaryRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		a := math.Exp(rng.Float64()*40 - 20)
		theta := rng.Float64()
		if trial%4 == 0 {
			theta = bandThetas[rng.Intn(len(bandThetas))]
		}
		rows := []*similarity.Profile{numeric(a, true)}
		for _, edge := range []float64{theta * a, a / theta, a} {
			lo, hi := edge, edge
			for i := 0; i < 4; i++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				rows = append(rows, numeric(lo, true), numeric(hi, true))
			}
			rows = append(rows, numeric(edge, true))
		}
		checkBand(t, rows[:1], rows, theta)
	}
}

// TestBandCandidatesPrune checks the band actually prunes: a tight
// threshold on spread-out prices must keep a small share of the rows.
func TestBandCandidatesPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]*similarity.Profile, 1000)
	for i := range rows {
		rows[i] = numeric(math.Exp(rng.Float64()*7), true) // 1 … ~1100, log-uniform
	}
	ix := Build(BandRelDiff, rows)
	s := NewScratch()
	loose, tight := len(ix.Candidates(numeric(50, true), 0, s)), len(ix.Candidates(numeric(50, true), 0.95, s))
	if loose != len(rows) {
		t.Errorf("θ=0 kept %d of %d rows", loose, len(rows))
	}
	if tight == 0 || tight > len(rows)/20 {
		t.Errorf("θ=0.95 kept %d of %d rows, want a few percent", tight, len(rows))
	}
}

// bandFromBytes decodes fuzz input: 8 bytes of θ (folded into [0, 1]), then
// one byte of flags and 8 bytes of value per profile, the first half of them
// probes and the rest rows.
func bandFromBytes(data []byte) (theta float64, probes, rows []*similarity.Profile) {
	if len(data) < 8 {
		return 0, nil, nil
	}
	theta = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
	if !(theta <= 1) {
		theta = 1 / theta // NaN stays NaN and is folded below
	}
	if math.IsNaN(theta) {
		theta = 0.5
	}
	var profs []*similarity.Profile
	for data = data[8:]; len(data) >= 9; data = data[9:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		switch data[0] % 8 {
		case 0:
			profs = append(profs, numeric(v, false))
		case 1:
			profs = append(profs, numeric(float64(int8(data[1])), true)) // small integers collide
		default:
			profs = append(profs, numeric(v, true))
		}
	}
	return theta, profs[:len(profs)/2], profs[len(profs)/2:]
}

// FuzzBandCandidates drives the band index with arbitrary float64 bit
// patterns — subnormals, infinities, NaNs, both zeros — as values and as θ:
// candidates must hold every row the predicate keeps, ascending, no row
// twice.
func FuzzBandCandidates(f *testing.F) {
	seed := func(theta float64, vals ...float64) {
		data := binary.LittleEndian.AppendUint64(nil, math.Float64bits(theta))
		for i, v := range vals {
			data = append(data, byte(2+i%3))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data)
	}
	seed(0.9539, 19.99, 20.95, 1299, 1238.6, 0, -3)
	seed(0, 1e300, 1e-300, math.Inf(1), math.NaN(), 5e-324, math.Copysign(0, -1))
	seed(1, 2, 2, 2.0000000000000004, 1.9999999999999998)
	f.Fuzz(func(t *testing.T, data []byte) {
		theta, probes, rows := bandFromBytes(data)
		if len(rows) == 0 {
			return
		}
		checkBand(t, probes, rows, theta)
	})
}

// TestUnionCandidates pins Union against its definition: the ascending,
// duplicate-free union of each term's own candidates — here a word-Jaccard
// term, a q-gram term whose length filter rejects rows the first accepts
// (and the other way round), and a band.
func TestUnionCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 120
	valsA, valsB := genValues(rng, 40), genValues(rng, n)
	profs := buildProfiles(valsA, valsB)
	price := func() []*similarity.Profile {
		out := make([]*similarity.Profile, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, numeric(math.Exp(rng.Float64()*5), rng.Intn(10) > 0))
		}
		return out
	}
	priceA, priceB := price()[:40], price()
	ixs := []*Index{Build(JaccardWords, profs[1]), Build(JaccardQGrams, profs[1]), Build(BandRelDiff, priceB)}
	thetas := []float64{0.6, 0.4, 0.9}
	s, one := NewScratch(), NewScratch()
	for a := range valsA {
		probes := []*similarity.Profile{profs[0][a], profs[0][a], priceA[a]}
		var want []int32
		for i, ix := range ixs {
			want = append(want, ix.Candidates(probes[i], thetas[i], one)...)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := Union(ixs, probes, thetas, s); !slices.Equal(got, want) {
			t.Fatalf("probe %d: union %v, want %v", a, got, want)
		}
		// A union of one is Candidates.
		if got := Union(ixs[:1], probes[:1], thetas[:1], s); !slices.Equal(got, ixs[0].Candidates(probes[0], thetas[0], one)) {
			t.Fatalf("probe %d: union of one differs from Candidates", a)
		}
	}
}

// TestFootprintExact pins Footprint to the bytes of the slices the index
// holds: the compressed-row postings of a set kind and the sorted band.
func TestFootprintExact(t *testing.T) {
	profs := buildProfiles([]string{"kingston kit", "", "!!!", "hyperx kit", "kingston hyperx"})[0]
	ix := Build(JaccardWords, profs)
	// 3 distinct words over 6 occurrences, 5 rows, one token-less row.
	if got, want := ix.Footprint(), int64(3*8+4*4+6*4+5*4+1*4); got != want {
		t.Errorf("postings footprint = %d, want %d", got, want)
	}
	if ix.Tokens() != 3 {
		t.Errorf("Tokens() = %d, want 3", ix.Tokens())
	}
	band := Build(BandRelDiff, []*similarity.Profile{numeric(2, true), numeric(0, false), numeric(1, true), numeric(math.NaN(), true)})
	if got, want := band.Footprint(), int64(2*8+2*4+1*4); got != want {
		t.Errorf("band footprint = %d, want %d", got, want)
	}
}

// TestKindOf pins the measure-name mapping the blocker's planner uses.
func TestKindOf(t *testing.T) {
	for name, want := range map[string]Kind{
		"jaccard_w":  JaccardWords,
		"jaccard_3g": JaccardQGrams,
		"overlap_w":  OverlapWords,
		"tfidf_cos":  CosineTFIDF,
		"rel_diff":   BandRelDiff,
	} {
		got, ok := KindOf(name)
		if !ok || got != want {
			t.Errorf("KindOf(%q) = %v, %v", name, got, ok)
		}
	}
	for _, name := range []string{"edit", "jaro_winkler", "exact", "abs_diff", "monge_elkan", ""} {
		if _, ok := KindOf(name); ok {
			t.Errorf("KindOf(%q) should not be indexable", name)
		}
	}
}

// priceColumn draws n numeric profiles, log-uniform over 1 … ~1100 and
// rounded so values repeat, one in eight missing.
func priceColumn(rng *rand.Rand, n int) []*similarity.Profile {
	col := make([]*similarity.Profile, n)
	for r := range col {
		col[r] = numeric(math.Round(math.Exp(rng.Float64()*7)), rng.Intn(8) > 0)
	}
	return col
}

// bandWant is the band's candidate set by brute force over a column of
// finite values: every present row for θ ≤ ε, else the rows inside
// [(θ−ε)·a, a/(θ−ε)] for a positive probe a; none for a missing probe.
func bandWant(col []*similarity.Profile, probe *similarity.Profile, theta float64) []int32 {
	var want []int32
	if !probe.NumericOK {
		return want
	}
	a, lo := probe.Numeric, theta-eps
	for r, p := range col {
		if p.NumericOK && (lo <= 0 || lo*a <= p.Numeric && p.Numeric <= a/lo) {
			want = append(want, int32(r))
		}
	}
	return want
}

// TestScratchReuseAcrossSizes drives one Scratch in alternation across
// indexes of sizes on either side of the bitmap's word (64 rows) and summary
// word (4096 rows) boundaries, the way a prober alternates shards. Every
// Candidates and Union must equal its brute-force set; a probe with no
// candidates right after a dense one proves collect left no mark behind.
func TestScratchReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{1, 63, 64, 65, 4095, 4096, 4097, 70000}
	type table struct {
		cols [2][]*similarity.Profile
		ixs  []*Index
	}
	tables := make([]table, len(sizes))
	for i, n := range sizes {
		tb := &tables[i]
		for c := range tb.cols {
			tb.cols[c] = priceColumn(rng, n)
			tb.ixs = append(tb.ixs, Build(BandRelDiff, tb.cols[c]))
		}
	}
	probes := []struct {
		p     *similarity.Profile
		theta float64
	}{
		{numeric(50, true), 0},      // dense: every present row
		{numeric(0, false), 0},      // missing: none
		{numeric(50, true), 0.9},    // sparse: a band around 50
		{numeric(1e9, true), 0.5},   // a band holding no row
		{numeric(300, true), 1e-12}, // dense again
		{numeric(7, true), 1},       // the rows equal to 7
	}
	s := NewScratch()
	order := []int{7, 0, 6, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 6, 0, 7}
	for _, i := range order {
		tb := &tables[i]
		for k, pr := range probes {
			want := bandWant(tb.cols[0], pr.p, pr.theta)
			if got := tb.ixs[0].Candidates(pr.p, pr.theta, s); !slices.Equal(got, want) {
				t.Fatalf("n=%d probe %d: Candidates %d rows, want %d", sizes[i], k, len(got), len(want))
			}
			// The second term probes the other column with the next probe.
			next := probes[(k+1)%len(probes)]
			want = append(want, bandWant(tb.cols[1], next.p, next.theta)...)
			slices.Sort(want)
			want = slices.Compact(want)
			got := Union(tb.ixs, []*similarity.Profile{pr.p, next.p}, []float64{pr.theta, next.theta}, s)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d probe %d: Union %d rows, want %d", sizes[i], k, len(got), len(want))
			}
		}
	}
}

// unionFixture is a word-Jaccard index and a band over the same 4000 rows,
// and probes for them: dense (θ = 0 on common words and a wide band) or
// sparse (a tight θ and band).
func unionFixture(dense bool) ([]*Index, [][]*similarity.Profile, []float64) {
	rng := rand.New(rand.NewSource(23))
	const n, nProbes = 4000, 64
	profs := buildProfiles(genValues(rng, n), genValues(rng, nProbes))
	ixs := []*Index{Build(JaccardWords, profs[0]), Build(BandRelDiff, priceColumn(rng, n))}
	prices := priceColumn(rng, nProbes)
	probes := make([][]*similarity.Profile, nProbes)
	for i := range probes {
		probes[i] = []*similarity.Profile{profs[1][i], prices[i]}
	}
	if dense {
		return ixs, probes, []float64{0, 0.75}
	}
	return ixs, probes, []float64{0.9, 0.999}
}

// TestUnionZeroAllocSteadyState pins the probe's steady state: with the
// scratch warm, Union allocates nothing, dense or sparse.
func TestUnionZeroAllocSteadyState(t *testing.T) {
	for _, dense := range []bool{true, false} {
		ixs, probes, thetas := unionFixture(dense)
		s := NewScratch()
		sweep := func() {
			for _, p := range probes {
				Union(ixs, p, thetas, s)
			}
		}
		sweep()
		if n := testing.AllocsPerRun(5, sweep); n != 0 {
			t.Errorf("dense=%v: a warm Union sweep allocates %v times, want 0", dense, n)
		}
	}
}

// BenchmarkUnion measures one probe of a two-term union (word Jaccard and a
// band) over 4000 rows. dense keeps about a third of the rows, as
// cit-index's probes keep ~29% of a shard; sparse a handful.
func BenchmarkUnion(b *testing.B) {
	for _, dense := range []bool{true, false} {
		name := "sparse"
		if dense {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			ixs, probes, thetas := unionFixture(dense)
			s := NewScratch()
			cands := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands += len(Union(ixs, probes[i%len(probes)], thetas, s))
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
		})
	}
}

func Example() {
	// Word sets compare as ranks in one vocabulary over rows and probes, so
	// both sides are profiled as one column.
	profs, _ := similarity.BuildColumn([][]string{
		{"kingston hyperx 4gb kit", "seagate barracuda drive"},
		{"kingston hyperx kit 8gb"},
	}, [][]int{{1, 1}, {1}}, similarity.FieldWordSet)
	ix := Build(JaccardWords, profs[0])
	fmt.Println(ix.Candidates(profs[1][0], 0.4, NewScratch()))
	// Output: [0]
}

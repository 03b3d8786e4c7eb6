// Package datagen synthesizes the paper's three evaluation datasets —
// Restaurants, Citations, and Products (Table 1) — with known ground truth.
// The generators control exactly the statistical properties Corleone's
// behaviour depends on: dataset sizes, extreme positive skew, attribute
// types, and matching difficulty (clean vs noisy duplicates, hard negatives
// from near-identical entity families, missing values, format variation).
//
// Each generator takes a scale factor so the full pipeline can run at
// bench-friendly sizes while preserving each dataset's shape, and a seed
// for reproducibility.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/corleone-em/corleone/internal/record"
)

// Profile names a generator configuration.
type Profile struct {
	// Name is the dataset name ("Restaurants", "Citations", "Products").
	Name string
	// SizeA, SizeB are the target table sizes.
	SizeA, SizeB int
	// Matches is the target number of true match pairs.
	Matches int
	// Seed drives generation.
	Seed int64
	// Noise scales every perturbation probability (1.0 = the calibrated
	// default; 0 = clean duplicates; 2 = twice as dirty). It is the
	// matching-difficulty dial for sensitivity sweeps.
	Noise float64
}

// Paper-scale profiles matching Table 1.
var (
	RestaurantsPaper = Profile{Name: "Restaurants", SizeA: 533, SizeB: 331, Matches: 112, Seed: 41}
	CitationsPaper   = Profile{Name: "Citations", SizeA: 2616, SizeB: 64263, Matches: 5347, Seed: 42}
	ProductsPaper    = Profile{Name: "Products", SizeA: 2554, SizeB: 22074, Matches: 1154, Seed: 43}
)

// Scaled shrinks a profile by the given factor (table sizes and matches
// scale linearly; the Cartesian product therefore scales quadratically).
func Scaled(p Profile, scale float64) Profile {
	if scale >= 1 {
		return p
	}
	s := func(n int) int {
		m := int(float64(n) * scale)
		if m < 8 {
			m = 8
		}
		return m
	}
	p.SizeA = s(p.SizeA)
	p.SizeB = s(p.SizeB)
	p.Matches = s(p.Matches)
	return p
}

// perturber applies the noise that distinguishes table B's rendition of an
// entity from table A's: typos, token drops and swaps, abbreviation,
// numeric jitter, and missing values. noise scales every probability.
type perturber struct {
	rng   *rand.Rand
	noise float64
}

func newPerturber(rng *rand.Rand, noise float64) *perturber {
	if noise <= 0 {
		noise = 1
	}
	return &perturber{rng: rng, noise: noise}
}

func (pt *perturber) maybe(prob float64) bool {
	p := prob * pt.noise
	if p > 0.95 {
		p = 0.95 // never make an attribute deterministic noise
	}
	return pt.rng.Float64() < p
}

// typo applies one random character edit (substitute, delete, insert,
// transpose) to s, leaving very short strings alone.
func (pt *perturber) typo(s string) string {
	rs := []rune(s)
	if len(rs) < 4 {
		return s
	}
	i := 1 + pt.rng.Intn(len(rs)-2)
	switch pt.rng.Intn(4) {
	case 0: // substitute
		rs[i] = rune('a' + pt.rng.Intn(26))
	case 1: // delete
		rs = append(rs[:i], rs[i+1:]...)
	case 2: // insert
		rs = append(rs[:i], append([]rune{rune('a' + pt.rng.Intn(26))}, rs[i:]...)...)
	case 3: // transpose
		rs[i-1], rs[i] = rs[i], rs[i-1]
	}
	return string(rs)
}

// typos applies n independent typos.
func (pt *perturber) typos(s string, n int) string {
	for i := 0; i < n; i++ {
		s = pt.typo(s)
	}
	return s
}

// dropToken removes one random token from a multi-token string.
func (pt *perturber) dropToken(s string) string {
	toks := strings.Fields(s)
	if len(toks) < 3 {
		return s
	}
	i := pt.rng.Intn(len(toks))
	return strings.Join(append(toks[:i:i], toks[i+1:]...), " ")
}

// swapTokens exchanges two adjacent tokens.
func (pt *perturber) swapTokens(s string) string {
	toks := strings.Fields(s)
	if len(toks) < 2 {
		return s
	}
	i := pt.rng.Intn(len(toks) - 1)
	toks[i], toks[i+1] = toks[i+1], toks[i]
	return strings.Join(toks, " ")
}

// truncate keeps the first k tokens (Scholar-style "..." titles).
func (pt *perturber) truncate(s string, minKeep int) string {
	toks := strings.Fields(s)
	if len(toks) <= minKeep {
		return s
	}
	k := minKeep + pt.rng.Intn(len(toks)-minKeep)
	return strings.Join(toks[:k], " ")
}

// jitter perturbs a numeric value multiplicatively within ±frac.
func (pt *perturber) jitter(v, frac float64) float64 {
	return v * (1 + (pt.rng.Float64()*2-1)*frac)
}

// chooseSeeds picks the paper's 2 positive + 2 negative illustrating
// examples deterministically: the first two true matches and two
// definitely-false pairs.
func chooseSeeds(rng *rand.Rand, truth *record.GroundTruth, sizeA, sizeB int) []record.Labeled {
	matches := truth.Matches()
	if len(matches) < 2 {
		panic("datagen: need at least 2 true matches for seed examples")
	}
	seeds := []record.Labeled{
		{Pair: matches[0], Match: true},
		{Pair: matches[len(matches)/2], Match: true},
	}
	for len(seeds) < 4 {
		p := record.P(rng.Intn(sizeA), rng.Intn(sizeB))
		if !truth.Match(p) {
			seeds = append(seeds, record.Labeled{Pair: p, Match: false})
		}
	}
	return seeds
}

// shuffleBoth randomly permutes the rows of both tables and remaps the
// match pairs accordingly, so that matching rows are spread uniformly
// through each table — the property the Blocker's B-sampling strategy
// relies on (§4.1 step 2).
func shuffleBoth(rng *rand.Rand, a, b *record.Table, matches []record.Pair) []record.Pair {
	permA := rng.Perm(a.Len()) // permA[old] = new position
	permB := rng.Perm(b.Len())
	rowsA := make([]record.Tuple, a.Len())
	for old, niu := range permA {
		rowsA[niu] = a.Rows[old]
	}
	rowsB := make([]record.Tuple, b.Len())
	for old, niu := range permB {
		rowsB[niu] = b.Rows[old]
	}
	a.Rows, b.Rows = rowsA, rowsB
	out := make([]record.Pair, len(matches))
	for i, m := range matches {
		out[i] = record.P(permA[m.A], permB[m.B])
	}
	return out
}

// assemble builds the final Dataset and validates it.
func assemble(name string, a, b *record.Table, matches []record.Pair,
	instruction string, rng *rand.Rand) *record.Dataset {

	truth := record.NewGroundTruth(matches)
	ds := &record.Dataset{
		Name:        name,
		A:           a,
		B:           b,
		Truth:       truth,
		Instruction: instruction,
		Seeds:       chooseSeeds(rng, truth, a.Len(), b.Len()),
	}
	if err := ds.Validate(); err != nil {
		panic(fmt.Sprintf("datagen: generated invalid dataset: %v", err))
	}
	return ds
}

// Generate dispatches on profile name.
func Generate(p Profile) *record.Dataset {
	switch p.Name {
	case "Restaurants":
		return Restaurants(p)
	case "Citations":
		return Citations(p)
	case "Products":
		return Products(p)
	case "Scale1M":
		return Synthetic(p)
	default:
		panic(fmt.Sprintf("datagen: unknown profile %q", p.Name))
	}
}

// ProfileByName resolves a user-supplied dataset name to its base profile.
// Matching is case-insensitive and ignores "-"/"_", so "scale-1m",
// "Scale1M", and "SCALE_1M" all resolve; the second return is false for
// unknown names. Every command-line dataset flag and every shard worker's
// job reconstruction resolves through here, so one spelling of a dataset
// means one dataset everywhere.
func ProfileByName(name string) (Profile, bool) {
	key := strings.ToLower(name)
	key = strings.ReplaceAll(key, "-", "")
	key = strings.ReplaceAll(key, "_", "")
	switch key {
	case "restaurants":
		return RestaurantsPaper, true
	case "citations":
		return CitationsPaper, true
	case "products":
		return ProductsPaper, true
	case "scale1m":
		return Scale1M, true
	default:
		return Profile{}, false
	}
}

// DatasetFor generates the named dataset at the given scale and noise
// (scale <= 0 or >= 1 means full profile scale; noise 0 keeps the
// profile's calibrated default). It is the one-call
// deterministic dataset constructor remote shard workers use to rebuild a
// job's inputs from its spec: same (name, scale, noise) in any process —
// including a worker restarted after a crash — yields the byte-identical
// dataset.
func DatasetFor(name string, scale, noise float64) (*record.Dataset, error) {
	base, ok := ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
	p := base
	if scale > 0 {
		p = Scaled(base, scale)
	}
	if noise > 0 {
		p.Noise = noise
	}
	return Generate(p), nil
}

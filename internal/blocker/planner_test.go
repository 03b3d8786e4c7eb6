package blocker

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/tree"
)

// applyRulesRef is the sequential exhaustive scan — the order and content
// ground truth both candidate-generation strategies must reproduce exactly.
func applyRulesRef(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule) []record.Pair {
	var out []record.Pair
	v := shard.NewVerifier(ex, rules)
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			if p := record.P(a, b); v.Survives(p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// applyRules materializes the planner's survivor stream at one in-process
// shard, where nothing can fail.
func applyRules(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule) []record.Pair {
	var out []record.Pair
	if err := applyRulesTo(ds, ex, rules, execConfig{shards: 1}, collectSink(&out)); err != nil {
		panic("blocker: in-process applyRules failed: " + err.Error())
	}
	return out
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

func le(f int, theta float64) tree.Rule {
	return tree.Rule{Preds: []tree.Predicate{{Feature: f, Op: tree.LE, Threshold: theta}}}
}

func samePairs(t *testing.T, label string, got, want []record.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d is %v, want %v (order or content differs)",
				label, i, got[i], want[i])
		}
	}
}

// TestApplyRulesEquivalence pins the planner bit-for-bit against the
// sequential exhaustive scan: same survivors, same (a, b)-lexicographic
// order, across datasets, rule shapes (indexed anchors of every supported
// measure at low and high thresholds, multi-predicate rules riding along,
// and non-indexable fallbacks), and GOMAXPROCS ∈ {1, 4}.
func TestApplyRulesEquivalence(t *testing.T) {
	datasets := []struct {
		name string
		ds   *record.Dataset
	}{
		{"Citations", datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))},
		{"Products", datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.02))},
		{"Restaurants", datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.4))},
	}
	for _, d := range datasets {
		ex := feature.NewExtractor(d.ds)

		type ruleCase struct {
			name    string
			rules   []tree.Rule
			indexed bool // what planRules must decide
		}
		var cases []ruleCase

		// One anchor per indexable measure the schema offers, at a loose and
		// a tight threshold (tight is where the index must still be complete
		// while pruning hardest).
		for _, kind := range []string{"jaccard_w", "jaccard_3g", "overlap_w", "tfidf_cos"} {
			f := featureByKind(ex, kind)
			if f < 0 {
				continue
			}
			for _, theta := range []float64{0, 0.5, 0.9} {
				cases = append(cases, ruleCase{
					name:    fmt.Sprintf("%s≤%g", kind, theta),
					rules:   []tree.Rule{le(f, theta)},
					indexed: true,
				})
			}
		}
		if jw := featureByKind(ex, "jaccard_w"); jw >= 0 {
			// Two predicates on the same feature: effective θ is the min.
			cases = append(cases, ruleCase{
				name: "same-feature-conjunction",
				rules: []tree.Rule{{Preds: []tree.Predicate{
					{Feature: jw, Op: tree.LE, Threshold: 0.6},
					{Feature: jw, Op: tree.LE, Threshold: 0.3},
				}}},
				indexed: true,
			})
			if other := featureByKind(ex, "exact"); other >= 0 {
				// A cross-feature conjunction cannot anchor, but the single-
				// predicate rule alongside it can; all rules still verify.
				cases = append(cases, ruleCase{
					name: "anchor-plus-conjunction",
					rules: []tree.Rule{
						le(jw, 0.4),
						{Preds: []tree.Predicate{
							{Feature: jw, Op: tree.LE, Threshold: 0.8},
							{Feature: other, Op: tree.LE, Threshold: 0.5},
						}},
					},
					indexed: true,
				})
			}
		}
		// Non-indexable shapes must fall back to the scan.
		if e := featureByKind(ex, "edit"); e >= 0 {
			cases = append(cases, ruleCase{
				name:    "edit-fallback",
				rules:   []tree.Rule{le(e, 0.3)},
				indexed: false,
			})
		} else if e := featureByKind(ex, "exact"); e >= 0 {
			cases = append(cases, ruleCase{
				name:    "exact-fallback",
				rules:   []tree.Rule{le(e, 0.5)},
				indexed: false,
			})
		}

		for _, c := range cases {
			want := applyRulesRef(d.ds, ex, c.rules)
			if got := planRules(ex, c.rules).indexed; got != c.indexed {
				t.Errorf("%s/%s: planRules indexed = %v, want %v", d.name, c.name, got, c.indexed)
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := applyRules(d.ds, ex, c.rules)
				runtime.GOMAXPROCS(prev)
				samePairs(t, fmt.Sprintf("%s/%s/GOMAXPROCS=%d", d.name, c.name, procs), got, want)
			}
		}
	}
}

// TestPlanRules pins the anchor-selection rules: which shapes index, and
// which anchor wins when several could.
func TestPlanRules(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.005))
	ex := feature.NewExtractor(ds)
	jw := featureByKind(ex, "jaccard_w")
	ow := featureByKind(ex, "overlap_w")
	if jw < 0 || ow < 0 {
		t.Fatal("Citations schema should offer jaccard_w and overlap_w")
	}

	if p := planRules(ex, nil); p.indexed {
		t.Error("no rules should not plan an index")
	}
	if p := planRules(ex, []tree.Rule{le(jw, 0.4)}); !p.indexed || p.feature != jw || p.theta != 0.4 {
		t.Errorf("single LE anchor: got %+v", p)
	}
	// Highest effective threshold wins (most selective join).
	p := planRules(ex, []tree.Rule{le(jw, 0.3), le(ow, 0.7)})
	if !p.indexed || p.feature != ow || p.theta != 0.7 {
		t.Errorf("selectivity choice: got %+v, want feature %d θ=0.7", p, ow)
	}
	// Ties break toward the lower feature index, deterministically.
	p = planRules(ex, []tree.Rule{le(ow, 0.5), le(jw, 0.5)})
	lo := jw
	if ow < lo {
		lo = ow
	}
	if !p.indexed || p.feature != lo {
		t.Errorf("tie-break: got feature %d, want %d", p.feature, lo)
	}
	// GT predicates, cross-feature conjunctions, and negative thresholds
	// cannot anchor.
	gt := tree.Rule{Preds: []tree.Predicate{{Feature: jw, Op: tree.GT, Threshold: 0.4}}}
	if p := planRules(ex, []tree.Rule{gt}); p.indexed {
		t.Error("GT rule should not anchor")
	}
	cross := tree.Rule{Preds: []tree.Predicate{
		{Feature: jw, Op: tree.LE, Threshold: 0.4},
		{Feature: ow, Op: tree.LE, Threshold: 0.4},
	}}
	if p := planRules(ex, []tree.Rule{cross}); p.indexed {
		t.Error("cross-feature conjunction should not anchor")
	}
	if p := planRules(ex, []tree.Rule{le(jw, -0.5)}); p.indexed {
		t.Error("negative threshold should not anchor")
	}
	// min over same-feature thresholds.
	same := tree.Rule{Preds: []tree.Predicate{
		{Feature: jw, Op: tree.LE, Threshold: 0.6},
		{Feature: jw, Op: tree.LE, Threshold: 0.2},
	}}
	if p := planRules(ex, []tree.Rule{same}); !p.indexed || p.theta != 0.2 {
		t.Errorf("same-feature conjunction: got θ=%g, want 0.2", p.theta)
	}
}

// TestApplyRulesToChunks pins the streaming contract: chunks arrive in
// order, never exceed the block size, and concatenate to exactly the
// materialized result — at several GOMAXPROCS.
func TestApplyRulesToChunks(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))
	ex := feature.NewExtractor(ds)
	jw := featureByKind(ex, "jaccard_w")
	rules := []tree.Rule{le(jw, 0.3)}
	want := applyRulesRef(ds, ex, rules)

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var got []record.Pair
		chunks := 0
		err := applyRulesTo(ds, ex, rules, execConfig{shards: 1}, func(chunk []record.Pair) {
			if len(chunk) == 0 {
				t.Error("sink received an empty chunk")
			}
			if len(chunk) > blockPairs {
				t.Errorf("chunk of %d pairs exceeds blockPairs=%d", len(chunk), blockPairs)
			}
			chunks++
			got = append(got, chunk...)
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(prev)
		samePairs(t, fmt.Sprintf("stream GOMAXPROCS=%d", procs), got, want)
		if chunks == 0 && len(want) > 0 {
			t.Error("no chunks delivered")
		}
	}
}

// TestEmitAllPairsMatchesAllPairs pins the untriggered-blocking path: the
// chunked emitter and the materializer produce the same stream.
func TestEmitAllPairsMatchesAllPairs(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.2))
	want := allPairs(ds)
	var got []record.Pair
	emitAllPairs(ds, collectSink(&got))
	samePairs(t, "emitAllPairs", got, want)
	if n := int64(len(want)); n != ds.CartesianSize() {
		t.Fatalf("allPairs produced %d pairs, want %d", n, ds.CartesianSize())
	}
}

// TestRunStreamsUntriggered pins Config.Sink on the no-blocking path: the
// full Cartesian product arrives through the sink and Candidates stays nil.
func TestRunStreamsUntriggered(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.2))
	ex := feature.NewExtractor(ds)
	var got []record.Pair
	cfg := Defaults()
	cfg.TB = int(ds.CartesianSize()) + 1
	cfg.Sink = collectSink(&got)
	res, err := Run(ds, ex, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != nil {
		t.Error("Candidates should be nil when streaming through a sink")
	}
	samePairs(t, "untriggered stream", got, allPairs(ds))
}

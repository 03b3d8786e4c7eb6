package blocker

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// applyRulesRef is the sequential exhaustive scan, one pair at a time through
// the pair kernels and Rule.MatchesFunc — the order and content ground truth
// both candidate-generation strategies must reproduce exactly.
func applyRulesRef(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule) []record.Pair {
	var out []record.Pair
	s := similarity.NewScratch()
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			p := record.P(a, b)
			get := func(f int) float64 { return ex.ComputeScratch(f, p, s) }
			if !slices.ContainsFunc(rules, func(r tree.Rule) bool { return r.MatchesFunc(get) }) {
				out = append(out, p)
			}
		}
	}
	return out
}

// applyRules materializes the planner's survivor stream.
func applyRules(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule) []record.Pair {
	var out []record.Pair
	applyRulesTo(ds, ex, rules, nil, collectSink(&out))
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

// featureByName returns the index of the named feature, or -1.
func featureByName(ex *feature.Extractor, name string) int {
	return slices.Index(ex.Names(), name)
}

// mustRule parses "f <= x & g > y & …" into a negative rule over ex's
// features, so the learned rule sets below read as the engine prints them.
func mustRule(ex *feature.Extractor, text string) tree.Rule {
	var r tree.Rule
	for _, term := range strings.Split(text, "&") {
		var name, op string
		var theta float64
		if _, err := fmt.Sscan(term, &name, &op, &theta); err != nil {
			panic(fmt.Sprintf("rule term %q: %v", term, err))
		}
		p := tree.Predicate{Feature: featureByName(ex, name), Op: tree.LE, Threshold: theta}
		if p.Feature < 0 || (op != "<=" && op != ">") {
			panic(fmt.Sprintf("rule term %q: unknown feature or operator", term))
		}
		if op == ">" {
			p.Op = tree.GT
		}
		r.Preds = append(r.Preds, p)
	}
	return r
}

// forcedPlan is the plan that indexes rule r whatever its estimate — the
// probe path must be exact on anchors the planner would rather scan.
func forcedPlan(t *testing.T, ex *feature.Extractor, r tree.Rule) plan {
	t.Helper()
	probes, kinds, why := anchorOf(ex, r)
	if probes == nil {
		t.Fatalf("rule %s does not anchor: %q", r.Render(ex.Name), why)
	}
	p := anchorPlan(ex, r, probes, kinds)
	p.Indexed = true
	return p
}

// measuredRuleSets are rule sets the default benchmark instances select
// (rules in selection order, thresholds as the engine prints them). anchor
// is the position of the rule the planner probes; the rules around it — ones
// with a > predicate or a measure no index serves, or unions too wide to
// win — are what every candidate must still be verified against, and what
// makes the scan of the same set expensive.
var measuredRuleSets = []struct {
	name, dataset string
	anchor        int
	rules         []string
}{
	{"products-band", "Products", 3, []string{ // Products×0.2 seed 1
		"category_exact <= 0.5 & category_jaro_winkler > 0.4511",
		"name_overlap_w <= 0.9 & category_jaccard_3g <= 0.5385",
		"modelno_exact <= 0.5 & name_overlap_w <= 0.9 & description_overlap_w > 0.6667 & category_jaccard_3g > 0.5385",
		"price_rel_diff <= 0.9539",
	}},
	{"products-band+3g", "Products", 4, []string{ // Products×0.2 seed 2
		"modelno_exact <= 0.5 & modelno_jaro_winkler > -0.3426",
		"modelno_exact <= 0.5 & name_jaccard_w <= 0.8333 & description_jaccard_w <= -0.5",
		"modelno_exact <= 0.5 & price_rel_diff > 0.984 & brand_jaro_winkler <= 0.7881 & description_jaccard_w > -0.5",
		"modelno_jaro_winkler <= 0.9222 & description_jaccard_w <= 0.95 & brand_jaccard_3g > 0.5714 & name_tfidf_cos <= 0.8824",
		"price_rel_diff <= 0.9677 & modelno_jaccard_3g <= 0.7857",
	}},
	{"citations-venue", "Citations", 0, []string{ // Citations×0.1 seed 1
		"title_jaccard_w <= 0.4643 & venue_jaccard_3g <= 0.008929",
		"authors_jaccard_w <= 0.2667 & venue_jaccard_w > 0.05",
		"authors_jaro_winkler <= 0.759 & authors_jaccard_w <= 0.2667",
	}},
	{"citations-year+cos+3g", "Citations", 0, []string{ // Citations×0.1 seed 7
		"year_rel_diff <= 0.9995 & title_tfidf_cos <= 0.923 & authors_jaccard_3g <= 0.4495",
		"authors_jaro_winkler <= 0.7199 & title_jaccard_w <= 0.4143 & authors_jaccard_3g <= 0.4523",
	}},
}

// scanRuleSets are the rule sets of the cit-scan instances that have no
// anchor (DESIGN.md §9.1 "What the scan spends"; thresholds as the engine
// prints them), on the dataset of their seed: an edit or Jaro-Winkler
// predicate in every rule, so the scan is all they run, and bounds decide
// most of its pairs. They stay out of measuredRuleSets, whose users expect
// an anchor.
var scanRuleSets = []struct {
	name  string
	seed  int64
	rules []string
}{
	{"citations#2", 2, []string{ // Citations×0.1 seed 2
		"title_jaccard_w <= 0.2917 & authors_jaccard_w > 0.108",
		"title_jaccard_w <= 0.5917 & title_overlap_w <= 0.9 & authors_jaccard_w <= 0.3939 & authors_edit <= 0.4716",
	}},
	{"citations#6", 6, []string{ // Citations×0.1 seed 6
		"authors_jaro_winkler <= 0.7238",
	}},
}

// parseRules parses rule texts against ex's features.
func parseRules(ex *feature.Extractor, texts []string) []tree.Rule {
	rules := make([]tree.Rule, len(texts))
	for i, text := range texts {
		rules[i] = mustRule(ex, text)
	}
	return rules
}

// measuredRules parses the named measured rule set against ex's features.
func measuredRules(ex *feature.Extractor, name string) []tree.Rule {
	for _, set := range measuredRuleSets {
		if set.name == name {
			return parseRules(ex, set.rules)
		}
	}
	panic("no measured rule set " + name)
}

// TestApplyRulesEquivalence pins the planner bit-for-bit against the
// sequential exhaustive scan: same survivors, same (a, b)-lexicographic
// order, across datasets, rule shapes (anchors of every supported measure
// at low and high thresholds, the union shapes the default instances
// learn, multi-predicate rules riding along, and non-indexable fallbacks),
// and GOMAXPROCS ∈ {1, 2, 4}. Every anchorable case runs twice: as the
// planner decides, and with its anchor's probes forced, so the probe path
// is checked on the named anchor even where the estimate prefers another.
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
			name   string
			rules  []tree.Rule
			anchor int // the rule whose probes are also forced; -1 for none
		}
		var cases []ruleCase

		// One anchor per indexable measure the schema offers, at a loose and
		// a tight threshold (tight is where the index must still be complete
		// while pruning hardest).
		for _, kind := range []string{"jaccard_w", "jaccard_3g", "overlap_w", "tfidf_cos", "rel_diff"} {
			f := featureByKind(ex, kind)
			if f < 0 {
				continue
			}
			for _, theta := range []float64{0, 0.5, 0.9} {
				cases = append(cases, ruleCase{
					name:  fmt.Sprintf("%s≤%g", kind, theta),
					rules: []tree.Rule{le(f, theta)},
				})
			}
		}
		for _, set := range measuredRuleSets {
			if set.dataset == d.name {
				cases = append(cases, ruleCase{name: set.name, rules: measuredRules(ex, set.name), anchor: set.anchor})
			}
		}
		if d.name == "Citations" {
			for _, set := range scanRuleSets {
				cases = append(cases, ruleCase{name: set.name, rules: parseRules(ex, set.rules), anchor: -1})
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
			})
			if other := featureByKind(ex, "exact"); other >= 0 {
				// A conjunction with a non-indexable feature cannot anchor,
				// but the single-predicate rule alongside it can; all rules
				// still verify.
				cases = append(cases, ruleCase{
					name: "anchor-plus-conjunction",
					rules: []tree.Rule{
						le(jw, 0.4),
						{Preds: []tree.Predicate{
							{Feature: jw, Op: tree.LE, Threshold: 0.8},
							{Feature: other, Op: tree.LE, Threshold: 0.5},
						}},
					},
				})
			}
		}
		// Non-indexable shapes must fall back to the scan.
		if e := featureByKind(ex, "edit"); e >= 0 {
			cases = append(cases, ruleCase{name: "edit-fallback", rules: []tree.Rule{le(e, 0.3)}, anchor: -1})
		} else if e := featureByKind(ex, "exact"); e >= 0 {
			cases = append(cases, ruleCase{name: "exact-fallback", rules: []tree.Rule{le(e, 0.5)}, anchor: -1})
		}

		for _, c := range cases {
			want := applyRulesRef(d.ds, ex, c.rules)
			if c.anchor < 0 && planRules(ex, c.rules).Indexed {
				t.Errorf("%s/%s: planRules indexed a rule set with no anchor", d.name, c.name)
			}
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := applyRules(d.ds, ex, c.rules)
				var forced []record.Pair
				if c.anchor >= 0 {
					applyPlanTo(d.ds, ex, c.rules, forcedPlan(t, ex, c.rules[c.anchor]), nil, collectSink(&forced))
				}
				runtime.GOMAXPROCS(prev)
				label := fmt.Sprintf("%s/%s/GOMAXPROCS=%d", d.name, c.name, procs)
				samePairs(t, label, got, want)
				if c.anchor >= 0 {
					samePairs(t, label+"/forced", forced, want)
				}
			}
		}
	}
}

// TestPlanRules pins the anchor-selection rules: which shapes index, with
// which probes, which anchor wins when several could, and the reason given
// when none does.
func TestPlanRules(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.005))
	ex := feature.NewExtractor(ds)
	jw := featureByKind(ex, "jaccard_w")
	ow := featureByKind(ex, "overlap_w")
	if jw < 0 || ow < 0 {
		t.Fatal("Citations schema should offer jaccard_w and overlap_w")
	}
	probesOf := func(p plan) []shard.Probe { return p.probes }

	if p := planRules(ex, nil); p.Indexed {
		t.Error("no rules should not plan an index")
	}
	p := planRules(ex, []tree.Rule{le(jw, 0.4)})
	if !p.Indexed || !slices.Equal(probesOf(p), []shard.Probe{{Feature: jw, Theta: 0.4}}) {
		t.Errorf("single LE anchor: got %+v", p.Plan)
	}
	if len(p.Probes) != 1 || p.Probes[0].Feature != ex.Name(jw) || p.Probes[0].Kind != "jaccard_w" || p.Rule == "" {
		t.Errorf("single LE anchor: explain record %+v does not name the probe", p.Plan)
	}

	// Fewest estimated candidates wins, whichever way the rules are listed.
	a, b := le(jw, 0.3), le(ow, 0.7)
	ea, eb := planRules(ex, []tree.Rule{a}).Estimated, planRules(ex, []tree.Rule{b}).Estimated
	if ea == eb {
		t.Fatalf("fixture: both anchors estimate %d candidates", ea)
	}
	wantF := jw
	if eb < ea {
		wantF = ow
	}
	for _, rules := range [][]tree.Rule{{a, b}, {b, a}} {
		if p := planRules(ex, rules); !p.Indexed || p.probes[0].Feature != wantF || p.Estimated != min(ea, eb) {
			t.Errorf("selectivity choice: got %+v, want feature %d with estimate %d", p.Plan, wantF, min(ea, eb))
		}
	}
	// Equal estimates resolve to the earlier rule: these two have the same
	// probe and render differently.
	same := tree.Rule{Preds: []tree.Predicate{
		{Feature: jw, Op: tree.LE, Threshold: 0.6},
		{Feature: jw, Op: tree.LE, Threshold: 0.2},
	}}
	for _, rules := range [][]tree.Rule{{same, le(jw, 0.2)}, {le(jw, 0.2), same}} {
		if p := planRules(ex, rules); !p.Indexed || p.Rule != rules[0].Render(ex.Name) {
			t.Errorf("tie-break: anchored %q, want the first rule %q", p.Rule, rules[0].Render(ex.Name))
		}
	}
	// Several predicates on one feature fold to the smallest threshold.
	if p := planRules(ex, []tree.Rule{same}); !p.Indexed || !slices.Equal(probesOf(p), []shard.Probe{{Feature: jw, Theta: 0.2}}) {
		t.Errorf("same-feature conjunction: got %+v, want one probe at θ=0.2", p.probes)
	}
	// A conjunction over several indexable features is a union of probes,
	// in the order the rule names them.
	cross := tree.Rule{Preds: []tree.Predicate{
		{Feature: ow, Op: tree.LE, Threshold: 0.9},
		{Feature: jw, Op: tree.LE, Threshold: 0.6},
		{Feature: ow, Op: tree.LE, Threshold: 0.8},
	}}
	if p := planRules(ex, []tree.Rule{cross}); !p.Indexed ||
		!slices.Equal(probesOf(p), []shard.Probe{{Feature: ow, Theta: 0.8}, {Feature: jw, Theta: 0.6}}) {
		t.Errorf("cross-feature conjunction: got %+v (%s)", p.probes, p.Reason)
	}

	// What cannot anchor, and the reason recorded for it.
	gt := tree.Rule{Preds: []tree.Predicate{{Feature: jw, Op: tree.GT, Threshold: 0.4}}}
	edit := featureByKind(ex, "edit")
	year := featureByName(ex, "year_rel_diff")
	for _, c := range []struct {
		name   string
		rules  []tree.Rule
		reason string
	}{
		{"GT rule", []tree.Rule{gt}, "no all-≤ rule"},
		{"negative threshold", []tree.Rule{le(jw, -0.5)}, "negative threshold"},
		{"non-indexable feature", []tree.Rule{gt, le(edit, 0.3)},
			fmt.Sprintf("predicate on %s (edit) not indexable", ex.Name(edit))},
		{"non-indexable conjunct", []tree.Rule{{Preds: []tree.Predicate{
			{Feature: jw, Op: tree.LE, Threshold: 0.4},
			{Feature: edit, Op: tree.LE, Threshold: 0.4},
		}}}, fmt.Sprintf("predicate on %s (edit) not indexable", ex.Name(edit))},
	} {
		if p := planRules(ex, c.rules); p.Indexed || p.Reason != c.reason || p.ix != nil {
			t.Errorf("%s: got indexed=%v reason %q, want a scan with reason %q", c.name, p.Indexed, p.Reason, c.reason)
		}
	}
	// A wide anchor still anchors: year_rel_diff ≤ 0.5 is estimated to keep
	// over half of A×B, and the plan indexes it all the same. That the
	// probes then emit the scan's stream is TestApplyRulesEquivalence's.
	if wide := planRules(ex, []tree.Rule{le(year, 0.5)}); !wide.Indexed || wide.Estimated <= ds.CartesianSize()/2 {
		t.Errorf("wide anchor: got indexed=%v with %d of %d pairs estimated (%s), want an index plan over half of A×B",
			wide.Indexed, wide.Estimated, ds.CartesianSize(), wide.Reason)
	}
	// A scan for want of an anchor beats nothing: one narrow anchor among
	// rules that cannot is still taken.
	if p := planRules(ex, []tree.Rule{gt, le(edit, 0.3), le(year, 0.5), le(jw, 0.4)}); !p.Indexed || p.probes[0].Feature != jw {
		t.Errorf("narrow anchor among non-anchors: got %+v", p.Plan)
	}
}

// TestApplyRulesToChunks pins the streaming contract: chunks arrive in
// order, never exceed the block size, and concatenate to exactly the
// materialized result — at several GOMAXPROCS. The second case has a table B
// longer than blockPairs and a rule that removes next to nothing, so every
// row of A — the scan's unit of work — holds more survivors than one chunk
// may carry and must reach the sink in pieces.
func TestApplyRulesToChunks(t *testing.T) {
	for _, c := range []struct {
		scale, theta float64
		split        bool
	}{{0.01, 0.3, false}, {0.07, -0.5, true}} {
		ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, c.scale))
		ex := feature.NewExtractor(ds)
		jw := featureByKind(ex, "jaccard_w")
		rules := []tree.Rule{le(jw, c.theta)}
		want := applyRulesRef(ds, ex, rules)
		if c.split && (ds.B.Len() <= blockPairs || len(want) < ds.A.Len()*blockPairs) {
			t.Fatalf("|B| = %d, %d survivors: rows do not outgrow blockPairs = %d", ds.B.Len(), len(want), blockPairs)
		}

		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			var got []record.Pair
			chunks, full := 0, 0
			applyRulesTo(ds, ex, rules, nil, func(chunk []record.Pair) {
				if len(chunk) == 0 {
					t.Error("sink received an empty chunk")
				}
				if len(chunk) > blockPairs {
					t.Errorf("chunk of %d pairs exceeds blockPairs=%d", len(chunk), blockPairs)
				}
				if len(chunk) == blockPairs {
					full++
				}
				chunks++
				got = append(got, chunk...)
			})
			runtime.GOMAXPROCS(prev)
			samePairs(t, fmt.Sprintf("stream |B|=%d GOMAXPROCS=%d", ds.B.Len(), procs), got, want)
			if chunks == 0 && len(want) > 0 {
				t.Error("no chunks delivered")
			}
			if c.split && full < ds.A.Len() {
				t.Errorf("%d full chunks for %d rows that each outgrow one", full, ds.A.Len())
			}
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

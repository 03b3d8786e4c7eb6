package shard

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/tree"
)

// parseRule reads "name <= θ & name > θ …" against ex's feature names.
func parseRule(t *testing.T, ex *feature.Extractor, text string) tree.Rule {
	t.Helper()
	var r tree.Rule
	for _, term := range strings.Split(text, " & ") {
		f := strings.Fields(term)
		if len(f) != 3 {
			t.Fatalf("bad predicate %q", term)
		}
		theta, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		p := tree.Predicate{Feature: -1, Op: tree.LE, Threshold: theta}
		if f[1] == ">" {
			p.Op = tree.GT
		}
		for i := 0; i < ex.NumFeatures(); i++ {
			if ex.Name(i) == f[0] {
				p.Feature = i
			}
		}
		if p.Feature < 0 {
			t.Fatalf("no feature %q", f[0])
		}
		r.Preds = append(r.Preds, p)
	}
	return r
}

// streamOf runs tasks through c over exec and returns the survivor lists in
// emission order.
func streamOf(t *testing.T, c *Coordinator, tasks []Task, exec Executor) [][]record.Pair {
	t.Helper()
	out := make([][]record.Pair, 0, len(tasks))
	if err := c.Run(tasks, exec, func(_ int, pairs []record.Pair) { out = append(out, pairs) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameStream fails unless got and want hold the same survivor lists in the
// same order (an empty list equals a nil one).
func sameStream(t *testing.T, name string, got, want [][]record.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d survivor lists, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: task %d kept %d pairs, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: task %d pair %d = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestShardedRemoteTransportEquivalence pins the remote executor to the
// in-process one: against two shard-worker HTTP servers that rebuild each
// dataset from its recipe, the survivor stream the Coordinator emits equals
// LocalExecutor's, list for list, at K ∈ {1, 2, 4} × batch ∈ {1, 16·K}. The
// anchors are a single jaccard_w probe and the union anchors of the rule
// sets the default benchmark instances learn (a word/3-gram union, a
// rel_diff band, a band/3-gram union and a band/tfidf/3-gram union), each
// verified against every rule of its set — the same lists as blocker's
// measuredRuleSets, > predicates and unindexed measures included. The job
// is bound the way the benchmark's transport probe binds it; nothing is
// retried and both byte counters move.
func TestShardedRemoteTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("remote transport matrix in -short mode")
	}
	cases := []struct {
		name    string
		recipe  JobSpec
		anchors []string // the probes' "name <= θ" terms
		rules   []string
	}{
		{"citations-single", JobSpec{Dataset: "citations", Scale: 0.01},
			[]string{"title_jaccard_w <= 0.3"},
			[]string{"title_jaccard_w <= 0.3"}},
		{"citations-venue", JobSpec{Dataset: "citations", Scale: 0.01},
			[]string{"title_jaccard_w <= 0.4643", "venue_jaccard_3g <= 0.008929"},
			[]string{
				"title_jaccard_w <= 0.4643 & venue_jaccard_3g <= 0.008929",
				"authors_jaccard_w <= 0.2667 & venue_jaccard_w > 0.05",
				"authors_jaro_winkler <= 0.759 & authors_jaccard_w <= 0.2667",
			}},
		{"products-band", JobSpec{Dataset: "products", Scale: 0.02},
			[]string{"price_rel_diff <= 0.9539"},
			[]string{
				"category_exact <= 0.5 & category_jaro_winkler > 0.4511",
				"name_overlap_w <= 0.9 & category_jaccard_3g <= 0.5385",
				"modelno_exact <= 0.5 & name_overlap_w <= 0.9 & description_overlap_w > 0.6667 & category_jaccard_3g > 0.5385",
				"price_rel_diff <= 0.9539",
			}},
		{"products-band+3g", JobSpec{Dataset: "products", Scale: 0.02},
			[]string{"price_rel_diff <= 0.9677", "modelno_jaccard_3g <= 0.7857"},
			[]string{
				"modelno_exact <= 0.5 & modelno_jaro_winkler > -0.3426",
				"modelno_exact <= 0.5 & name_jaccard_w <= 0.8333 & description_jaccard_w <= -0.5",
				"modelno_exact <= 0.5 & price_rel_diff > 0.984 & brand_jaro_winkler <= 0.7881 & description_jaccard_w > -0.5",
				"modelno_jaro_winkler <= 0.9222 & description_jaccard_w <= 0.95 & brand_jaccard_3g > 0.5714 & name_tfidf_cos <= 0.8824",
				"price_rel_diff <= 0.9677 & modelno_jaccard_3g <= 0.7857",
			}},
		{"citations-year+cos+3g", JobSpec{Dataset: "citations", Scale: 0.01},
			[]string{"year_rel_diff <= 0.9995", "title_tfidf_cos <= 0.923", "authors_jaccard_3g <= 0.4495"},
			[]string{
				"year_rel_diff <= 0.9995 & title_tfidf_cos <= 0.923 & authors_jaccard_3g <= 0.4495",
				"authors_jaro_winkler <= 0.7199 & title_jaccard_w <= 0.4143 & authors_jaccard_3g <= 0.4523",
			}},
	}

	w1, w2 := NewWorker(), NewWorker()
	srv1 := httptest.NewServer(w1.Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(w2.Handler())
	defer srv2.Close()
	endpoints := []string{srv1.URL, srv2.URL}

	for _, tc := range cases {
		ds, err := datagen.DatasetFor(tc.recipe.Dataset, tc.recipe.Scale, 0)
		if err != nil {
			t.Fatal(err)
		}
		ex := feature.NewExtractor(ds)
		var rules []tree.Rule
		for _, text := range tc.rules {
			rules = append(rules, parseRule(t, ex, text))
		}
		var probes []Probe
		for _, text := range tc.anchors {
			p := parseRule(t, ex, text).Preds[0]
			probes = append(probes, Probe{Feature: p.Feature, Theta: p.Threshold})
		}
		kinds, err := probeKinds(ex, probes)
		if err != nil {
			t.Fatal(err)
		}
		colsA, colsB, thetas := ProbeColumns(ex, probes)

		for _, k := range []int{1, 2, 4} {
			local := NewUnionExecutor(ex, BuildUnionGroup(kinds, colsB, k), colsA, rules, thetas)
			want := streamOf(t, &Coordinator{Workers: 2}, BlockTasks(tc.name, ds.A.Len(), k), local)
			survivors := 0
			for _, pairs := range want {
				survivors += len(pairs)
			}
			if survivors == 0 {
				t.Fatalf("%s/k=%d: no survivors — the case checks nothing", tc.name, k)
			}
			for _, batch := range []int{1, 16 * k} {
				name := fmt.Sprintf("%s/k=%d/batch=%d", tc.name, k, batch)
				tasks := BlockTasks(name, ds.A.Len(), k)
				var stats Stats
				remote := NewRemoteExecutor(endpoints, tc.recipe, nil)
				remote.BindJob(JobParams{Job: name, Shards: k, Probes: probes, Rules: rules, Stats: &stats})
				coord := &Coordinator{Workers: 2, Batch: batch, Backoff: 50 * time.Millisecond, Stats: &stats}
				sameStream(t, name, streamOf(t, coord, tasks, remote), want)
				if r := stats.Retried.Load(); r != 0 {
					t.Errorf("%s: %d retries against healthy workers", name, r)
				}
				if stats.Dispatched.Load() != int64(len(tasks)) {
					t.Errorf("%s: dispatched %d tasks, want %d", name, stats.Dispatched.Load(), len(tasks))
				}
				if stats.BytesSent.Load() == 0 || stats.BytesReceived.Load() == 0 {
					t.Errorf("%s: transport byte counters empty (sent %d, received %d)",
						name, stats.BytesSent.Load(), stats.BytesReceived.Load())
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestTinySmoke runs every workload at a fraction of its size, one pass,
// timed and traced, with all output checks on: result fingerprints stable
// across runs, staged replay equal to engine.Run, every service job done,
// resumed jobs equal to the originals at zero new crowd spend.
func TestTinySmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w.name, seed: 1, seconds: 0.001, trace: trace, tiny: true, outDir: t.TempDir()}
			rep, err := run(opt, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, spec := range want {
				s, ok := rep.Metrics[spec.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, spec.name)
				case s.Unit != spec.unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, spec.name, s.Unit, spec.unit)
				case !trace && !(s.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, spec.name, s.Value)
				}
			}
			line := resultLine(rep)
			var parsed map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("%s: result line is not a 4-key JSON object: %v %s", w.name, err, line)
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables the harness runs on.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.name || g.Unit != spec.unit || g.Better != spec.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, g, spec)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != spec.bound) {
				t.Errorf("%s %s: bound mismatch", kind, spec.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 0.95); got != 190 { // exactly 10 samples beyond it
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("p95 of one sample = %v", got)
	}
}

// TestSpreadMatchesPython pins quartiles to statistics.quantiles(xs, n=4),
// which is what the driver judges steadiness with.
func TestSpreadMatchesPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v; Python gives 1.25, 3.75", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricSpec{name: "pairs_per_s", better: "higher", bound: 0.10}
	lower := metricSpec{name: "job_p50_s", better: "lower", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same runs", higher, steady, steady, unchanged},
		{"within bound", higher, steady, scale(steady, 0.95), unchanged},
		{"throughput down 20%", higher, steady, scale(steady, 0.8), regressed},
		{"throughput up 20%", higher, steady, scale(steady, 1.2), improved},
		{"latency up 20%", lower, steady, scale(steady, 1.2), regressed},
		{"latency down 20%", lower, steady, scale(steady, 0.8), improved},
		{"spread wider than bound", higher, noisy, scale(noisy, 0.85), unresolved},
		{"noisy but disjoint", higher, noisy, scale(noisy, 3), improved},
		{"noisy, disjoint, worse", lower, noisy, scale(noisy, 3), regressed},
	}
	for _, c := range cases {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentConditions(t *testing.T) {
	base := func() *report {
		return &report{Workload: "cit-scan", Seconds: 12, Box: box{CPU: "x", NumCPU: 2, GOMAXPROCS: 2, Go: "go1.24"},
			Instances: []int64{1, 2, 6}}
	}
	if err := sameConditions("cit-scan", []*report{base()}, []*report{base()}); err != nil {
		t.Errorf("identical conditions refused: %v", err)
	}
	otherBox := base()
	otherBox.Box.NumCPU = 8
	otherInstances := base()
	otherInstances.Instances = []int64{2, 3, 7}
	otherLength := base()
	otherLength.Seconds = 30
	for name, r := range map[string]*report{"box": otherBox, "instances": otherInstances, "seconds": otherLength} {
		if err := sameConditions("cit-scan", []*report{base()}, []*report{r}); err == nil {
			t.Errorf("different %s accepted", name)
		}
	}
}

// TestCompareFiles round-trips two run sets through -out files.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pps float64) string {
		path := dir + "/" + name
		for seed := int64(1); seed <= 4; seed++ {
			rep := &report{Workload: "cit-scan", Seed: seed, Seconds: 12, Instances: []int64{1, 2, 6},
				Correct: true, Attempted: 10, Metrics: map[string]stat{}}
			for _, spec := range endToEnd {
				rep.Metrics[spec.name] = single(spec.unit, 1)
			}
			rep.Metrics["pairs_per_s"] = single("1/s", pps+float64(seed))
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, slower := write("a.jsonl", 1000), write("b.jsonl", 700)
	var out strings.Builder
	if bad, err := compareFiles(&out, a, a); err != nil || bad {
		t.Errorf("a set against itself: regressed=%v err=%v", bad, err)
	}
	out.Reset()
	bad, err := compareFiles(&out, a, slower)
	if err != nil || !bad || !strings.Contains(out.String(), regressed) {
		t.Errorf("30%% slower set: regressed=%v err=%v\n%s", bad, err, out.String())
	}
}

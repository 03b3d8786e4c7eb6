package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// leRule builds a single-predicate sim(f) ≤ θ rule.
func leRule(f int, theta float64) tree.Rule {
	return tree.Rule{Preds: []tree.Predicate{{Feature: f, Op: tree.LE, Threshold: theta}}}
}

// testJob builds the shared fixture: a small Restaurants dataset, its
// extractor, an indexable anchor, rules, and the matching JobSpec.
func testJob(t testing.TB, k int) (spec JobSpec, ex *feature.Extractor, rules []tree.Rule) {
	t.Helper()
	const scale = 0.3
	ds, err := datagen.DatasetFor("restaurants", scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex = feature.NewExtractor(ds)
	f := featureByKind(ex, "jaccard_w")
	if f < 0 {
		t.Fatal("no jaccard_w feature")
	}
	rules = []tree.Rule{leRule(f, 0.3)}
	spec = JobSpec{Job: "test-job", Dataset: "restaurants", Scale: scale,
		Shards: k, Feature: f, Theta: 0.3, Rules: rules}
	return spec, ex, rules
}

// localBaseline computes the expected survivor stream through the local
// executor at the given K.
func localBaseline(t *testing.T, spec JobSpec, ex *feature.Extractor, rules []tree.Rule) []record.Pair {
	t.Helper()
	profA, profB := ex.Profiles(spec.Feature)
	group := BuildGroup(mustKind(t, ex, spec.Feature), profB, spec.Shards)
	exec := NewLocalExecutor(ex, group, profA, rules, spec.Theta)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)
	out, err := runMerged(&Coordinator{Workers: 2}, tasks, exec, spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runMerged drives a k-shard task grid through the coordinator and stitches
// each probe block's k consecutive survivor lists back into (a, b) order —
// what the blocker's planner does with the stream.
func runMerged(c *Coordinator, tasks []Task, exec Executor, k int) ([]record.Pair, error) {
	var out []record.Pair
	per := make([][]record.Pair, k)
	filled := 0
	err := c.Run(tasks, exec, func(_ int, pairs []record.Pair) {
		per[filled] = pairs
		filled++
		if filled == k {
			out = append(out, MergePairs(nil, per)...)
			filled = 0
		}
	})
	return out, err
}

func mustKind(t *testing.T, ex *feature.Extractor, f int) simindex.Kind {
	t.Helper()
	kind, ok := simindex.KindOf(ex.Features()[f].Kind)
	if !ok {
		t.Fatalf("feature %d not indexable", f)
	}
	return kind
}

// TestWorkerHTTPRoundTrip pins the full remote protocol: a fresh worker
// answers 412, the executor lazy-loads the job, probes flow, and the
// coordinator's merged output is byte-identical to the local executor's.
func TestWorkerHTTPRoundTrip(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	want := localBaseline(t, spec, ex, rules)

	w := NewWorker()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	rexec := NewRemoteExecutor([]string{srv.URL}, spec, srv.Client())
	profA, _ := ex.Profiles(spec.Feature)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)
	got, err := runMerged(&Coordinator{Workers: 3}, tasks, rexec, spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote emitted %d pairs, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: remote %v, local %v", i, got[i], want[i])
		}
	}
	// The worker rebuilt dataset and extractor from the recipe. Index keys
	// are vocabulary ranks, so its profiles — ranks included — must be the
	// coordinator's, row for row, not merely yield the same survivors.
	remA, remB := w.jobs[spec.Job].profA[0], w.jobs[spec.Job].profB[0]
	_, profB := ex.Profiles(spec.Feature)
	if !reflect.DeepEqual(remA, profA) || !reflect.DeepEqual(remB, profB) {
		t.Error("worker-side profiles (word ranks) differ from the coordinator's")
	}
	if w.Stats().JobsLoaded.Load() != 1 {
		t.Errorf("worker loaded %d jobs, want 1 (lazy-load once)", w.Stats().JobsLoaded.Load())
	}
	if w.Stats().Probes.Load() != int64(len(tasks)) {
		t.Errorf("worker served %d probes, want %d", w.Stats().Probes.Load(), len(tasks))
	}
}

// TestWorkerLoadIdempotent pins load semantics: same spec re-loads are
// no-ops, a conflicting spec for the same job id is rejected.
func TestWorkerLoadIdempotent(t *testing.T) {
	spec, _, _ := testJob(t, 2)
	w := NewWorker()
	if err := w.Load(spec); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(spec); err != nil {
		t.Fatalf("idempotent re-load failed: %v", err)
	}
	if n := w.Stats().JobsLoaded.Load(); n != 1 {
		t.Errorf("loads counted %d, want 1", n)
	}
	conflict := spec
	conflict.Shards++
	if err := w.Load(conflict); err == nil {
		t.Error("conflicting spec for the same job id should be rejected")
	}
}

// TestWorkerLoadSpecSpellings pins /shard/load's two spellings of a job's
// probes over HTTP: a spec with only "feature"/"theta" — every spec before
// probe lists — is the probe list of one, so the "probes" spelling of the
// same job is a re-load, not a conflict; a spec with both, with a probe no
// index serves, or with a rule on a feature the extractor does not have is
// a 400, and the job stays unloaded, so a probe of it is the 412 handshake.
func TestWorkerLoadSpecSpellings(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	w := NewWorker()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	load := func(body string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/shard/load", JSONContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	rulesJSON, err := json.Marshal(rules)
	if err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf(`"dataset":"restaurants","scale":%v,"shards":2,"rules":%s`, spec.Scale, rulesJSON)
	legacy := fmt.Sprintf(`{"job":"spell",%s,"feature":%d,"theta":0.3}`, head, spec.Feature)
	listed := fmt.Sprintf(`{"job":"spell",%s,"probes":[{"feature":%d,"theta":0.3}]}`, head, spec.Feature)
	if code := load(legacy); code != http.StatusOK {
		t.Fatalf("legacy feature/theta spec: status %d", code)
	}
	if code := load(listed); code != http.StatusOK {
		t.Errorf("probes spelling of the loaded job: status %d, want an idempotent 200", code)
	}
	if n := w.Stats().JobsLoaded.Load(); n != 1 {
		t.Errorf("two spellings of one job counted %d loads, want 1", n)
	}
	both := fmt.Sprintf(`{"job":"both",%s,"feature":%d,"theta":0.3,"probes":[{"feature":%d,"theta":0.3}]}`,
		head, spec.Feature, spec.Feature)
	if code := load(both); code != http.StatusBadRequest {
		t.Errorf("spec naming probes and feature/theta: status %d, want 400", code)
	}
	for name, probes := range map[string]string{
		"unindexable": fmt.Sprintf(`[{"feature":%d,"theta":0.3}]`, featureByKind(ex, "edit")),
		"negative":    fmt.Sprintf(`[{"feature":%d,"theta":-0.1}]`, spec.Feature),
		"range":       `[{"feature":9999,"theta":0.3}]`,
		"below":       `[{"feature":-1,"theta":0.3}]`,
		"past":        fmt.Sprintf(`[{"feature":%d,"theta":0.3}]`, ex.NumFeatures()),
	} {
		if code := load(fmt.Sprintf(`{"job":%q,%s,"probes":%s}`, name, head, probes)); code != http.StatusBadRequest {
			t.Errorf("%s probe: status %d, want 400", name, code)
		}
	}
	for name, f := range map[string]int{"rule-below": -1, "rule-past": ex.NumFeatures(), "rule-range": 9999} {
		bad, err := json.Marshal([]tree.Rule{rules[0], leRule(f, 0.3)})
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"job":%q,"dataset":"restaurants","scale":%v,"shards":2,"rules":%s,"feature":%d,"theta":0.3}`,
			name, spec.Scale, bad, spec.Feature)
		if code := load(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		resp, err := srv.Client().Post(srv.URL+"/shard/probe", JSONContentType,
			strings.NewReader(fmt.Sprintf(`[{"job":%q,"a_hi":1,"shards":2}]`, name)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Errorf("%s: probe after the refused load: status %d, want 412", name, resp.StatusCode)
		}
	}

	// The legacy-loaded job serves probes like any other.
	legacySpec := spec
	legacySpec.Job = "spell"
	got, err := runMerged(&Coordinator{Workers: 2}, BlockTasks("spell", ex.A.Len(), 2),
		NewRemoteExecutor([]string{srv.URL}, legacySpec, srv.Client()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := localBaseline(t, spec, ex, rules); !reflect.DeepEqual(got, want) {
		t.Errorf("legacy-spec job emitted %d pairs, local baseline %d", len(got), len(want))
	}
}

// FuzzWorkerLoad holds /shard/load to totality on hostile bytes: a body
// decodes as the handler decodes it, and a spec Load accepts serves a probe
// without panicking. The dataset and the shard count are resource bounds,
// not decoder totality, so every spec runs on testJob's dataset with at most
// 8 shards.
func FuzzWorkerLoad(f *testing.F) {
	spec, ex, rules := testJob(f, 2)
	bad := spec
	bad.Rules = []tree.Rule{leRule(9999, 0.3)}
	wide := JobSpec{Job: "wide", Shards: 8, Rules: append(rules,
		tree.Rule{Preds: []tree.Predicate{{Feature: featureByKind(ex, "exact"), Op: tree.GT, Threshold: 0.5}}}),
		Probes: []Probe{{Feature: spec.Feature, Theta: 0.3}, {Feature: featureByKind(ex, "jaccard_3g"), Theta: 0.5}}}
	for _, s := range []JobSpec{spec, bad, wide} {
		body, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		got.Dataset, got.Scale, got.Noise = spec.Dataset, spec.Scale, spec.Noise
		got.Shards = min(got.Shards, 8)
		w := NewWorker()
		if w.Load(got) != nil {
			return
		}
		job, err := w.job(got.Job)
		if err != nil {
			t.Fatalf("accepted job %q is not loaded: %v", got.Job, err)
		}
		task := Task{Job: got.Job, AHi: int32(min(len(job.profA[0]), TaskBlockRows)), Shards: got.Shards}
		if err := validateTask(job, task); err != nil {
			t.Fatalf("accepted job %q refuses its first task: %v", got.Job, err)
		}
		w.probeLoaded(job, task)
	})
}

// TestWorkerUnknownJob pins the 412 protocol at both layers: the job
// lookup returns ErrUnknownJob, and the HTTP handler maps it to 412.
func TestWorkerUnknownJob(t *testing.T) {
	w := NewWorker()
	if _, err := w.job("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("lookup of unknown job: %v, want ErrUnknownJob", err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/shard/probe", "application/json",
		strings.NewReader(`[{"job":"nope","shards":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status %d, want 412", resp.StatusCode)
	}
}

// TestRemoteExecutorFailover pins failover routing: with one dead endpoint
// and one live worker, the coordinator's retries land every task and the
// output stays identical to the local baseline.
func TestRemoteExecutorFailover(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	want := localBaseline(t, spec, ex, rules)

	w := NewWorker()
	live := httptest.NewServer(w.Handler())
	defer live.Close()
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		http.Error(rw, "crashed", http.StatusInternalServerError)
	}))
	defer dead.Close()

	var stats Stats
	rexec := NewRemoteExecutor([]string{dead.URL, live.URL}, spec, live.Client())
	profA, _ := ex.Profiles(spec.Feature)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)
	c := &Coordinator{Workers: 2, MaxAttempts: 3, Stats: &stats}
	got, err := runMerged(c, tasks, rexec, spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("failover emitted %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v, want %v", i, got[i], want[i])
		}
	}
	if deadHits.Load() == 0 {
		t.Error("dead endpoint was never tried — routing is not alternating")
	}
	if stats.Retried.Load() == 0 {
		t.Error("no retries counted despite a dead endpoint")
	}
}

// TestWorkerProbeAlwaysBinary pins the one wire format: a probe with no
// Accept header, or one naming only a foreign type, still gets the binary
// frame stream — for a run of one task as for a longer one.
func TestWorkerProbeAlwaysBinary(t *testing.T) {
	spec, _, _ := testJob(t, 2)
	w := NewWorker()
	if err := w.Load(spec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	task := `{"job":"test-job","a_lo":0,"a_hi":8,"shard":0,"shards":2}`
	for _, accept := range []string{"", "application/json", "application/x-ndjson, text/plain"} {
		for _, body := range []string{"[" + task + "]", "[" + task + "," + task + "]"} {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/shard/probe", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || got != PairStreamContentType {
				t.Errorf("Accept %q: status %d, content type %q, want 200 %q",
					accept, resp.StatusCode, got, PairStreamContentType)
			}
		}
	}
}

// TestWorkerRejectsBareTask pins the one request shape: a bare task object
// is a 400 (not a second protocol), and the same task as an array of one
// answers with a stream of exactly one frame holding the task's survivors.
func TestWorkerRejectsBareTask(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	w := NewWorker()
	if err := w.Load(spec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/shard/probe", JSONContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	task := `{"job":"test-job","a_lo":0,"a_hi":8,"shard":0,"shards":2}`
	resp := post(task)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bare task object: status %d, want 400", resp.StatusCode)
	}
	if n := w.Stats().Probes.Load(); n != 0 {
		t.Fatalf("a rejected body still ran %d probes", n)
	}

	resp = post("[" + task + "]")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != PairStreamContentType {
		t.Fatalf("array of one: status %d, content type %q, want 200 %q", resp.StatusCode, ct, PairStreamContentType)
	}
	br := bufio.NewReader(resp.Body)
	frame, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	got, err := DecodePairs(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("after the one frame: %v, want io.EOF", err)
	}
	profA, profB := ex.Profiles(spec.Feature)
	local := NewLocalExecutor(ex, BuildGroup(mustKind(t, ex, spec.Feature), profB, 2), profA, rules, spec.Theta)
	want, err := local.Probe([]Task{{Job: spec.Job, ALo: 0, AHi: 8, Shard: 0, Shards: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("frame decoded to %d pairs, local executor says %d (or they differ)", len(got), len(want[0]))
	}
}

// forgetfulWorker serves a shard worker that loses its state once, right
// after its first successful /shard/load — a process restart landing
// between the executor's 412 re-load and its retried probe.
type forgetfulWorker struct {
	mu     sync.Mutex
	w      *Worker
	forgot bool
}

func (f *forgetfulWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	w := f.w
	f.mu.Unlock()
	w.Handler().ServeHTTP(rw, r)
	if r.URL.Path != "/shard/load" {
		return
	}
	f.mu.Lock()
	if !f.forgot {
		f.forgot = true
		f.w = NewWorker()
	}
	f.mu.Unlock()
}

// TestRemoteSecond412Retries is the regression test for a run-ending
// flake: the executor reloads once on 412, and a second 412 straight after
// the reload used to count as a terminal 4xx. The coordinator must treat it
// as retryable, load again on the next attempt, and emit the baseline
// stream — through groups of one and through batches.
func TestRemoteSecond412Retries(t *testing.T) {
	spec, ex, rules := testJob(t, 2)
	want := localBaseline(t, spec, ex, rules)
	profA, _ := ex.Profiles(spec.Feature)
	tasks := BlockTasks(spec.Job, len(profA), spec.Shards)

	for _, batch := range []int{1, 8} {
		fw := &forgetfulWorker{w: NewWorker()}
		srv := httptest.NewServer(fw)
		var stats Stats
		rexec := NewRemoteExecutor([]string{srv.URL}, spec, srv.Client())
		// One coordinator worker: the first probe alone meets both 412s.
		c := &Coordinator{Workers: 1, Batch: batch, Stats: &stats}
		got, err := runMerged(c, tasks, rexec, spec.Shards)
		srv.Close()
		if err != nil {
			t.Fatalf("batch=%d: a second 412 after reload ended the run: %v", batch, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d: emitted %d pairs, local baseline %d (or order differs)",
				batch, len(got), len(want))
		}
		if !fw.forgot {
			t.Fatalf("batch=%d: the worker never forgot the job; the test exercised nothing", batch)
		}
		if stats.Retried.Load() == 0 {
			t.Errorf("batch=%d: no coordinator retry counted for the post-reload 412", batch)
		}
	}
}

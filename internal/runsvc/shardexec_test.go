package runsvc

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/shard"
)

// indexedMeta is a job whose blocking step takes an index plan: t_B is
// forced below the scaled Cartesian product, and the profile/seed are ones
// whose learned blocking rules anchor an indexable feature (a rule set
// anchored only on non-indexable features falls back to the exhaustive
// scan, which counts no probe blocks).
func indexedMeta(seed int64) Meta {
	return Meta{
		Profile: "citations",
		Scale:   0.15,
		Seed:    seed,
		TB:      1,
	}
}

// TestHealthzAndMetrics pins the observability surface: /healthz answers
// while the service is up, and /metrics reflects job states, index probe
// blocks, and journal bytes as work flows through the manager.
func TestHealthzAndMetrics(t *testing.T) {
	m, err := NewManager(Options{Workers: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	getMetrics := func() Metrics {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		var mm Metrics
		if err := json.NewDecoder(resp.Body).Decode(&mm); err != nil {
			t.Fatalf("decode metrics: %v", err)
		}
		return mm
	}

	if mm := getMetrics(); mm != (Metrics{}) {
		t.Fatalf("fresh manager metrics %+v, want zeros", mm)
	}

	meta := indexedMeta(5)
	spec, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	blocks := int64((spec.Dataset.A.Len() + shard.TaskBlockRows - 1) / shard.TaskBlockRows)
	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("job: %v", err)
	}

	mm := getMetrics()
	if mm.JobsDone != 1 || mm.JobsQueued != 0 || mm.JobsRunning != 0 {
		t.Errorf("job counts %+v, want exactly one done", mm)
	}
	if mm.ShardTasksDispatched != blocks {
		t.Errorf("an index plan over %d rows of A counted %d probe blocks, want %d",
			spec.Dataset.A.Len(), mm.ShardTasksDispatched, blocks)
	}
	if mm.BytesJournaled == 0 {
		t.Error("journaled job reported 0 bytes journaled")
	}

	// Wrong method is rejected.
	resp, err = http.Post(srv.URL+"/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}

// TestResumeJournalWithShardCounts: a journal written when runsvc still
// took a blocking shard count carries "shards" and "shard_workers" in its
// spec.json. Such a job must still decode and resume, to the Result of the
// same Meta without the two fields, and resuming it finished must ask the
// crowd nothing. The job is the benchmark's cit-index shape at a small
// scale, so its blocking takes an index plan.
func TestResumeJournalWithShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline runs in -short mode")
	}
	plain := Meta{Profile: "citations", Scale: 0.05, Seed: 5, TB: 1}
	want := serialRun(t, plain)
	if !want.Blocking.Plan.Indexed {
		t.Fatalf("blocking ran %s; the fixture must take an index plan", want.Blocking.Plan)
	}
	dir := t.TempDir()
	sharded := plain
	sharded.Shards, sharded.ShardWorkers = 4, 2
	m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	j1, err := m1.Submit(Spec{Meta: &sharded})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, err = j1.Wait()
	m1.Close()
	if err != nil || j1.State() != StateDone {
		t.Fatalf("first run: state %s, err %v", j1.State(), err)
	}

	m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	jl, err := m2.Store().Open(j1.ID)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	rec, err := jl.ReadSpec()
	jl.Close()
	if err != nil {
		t.Fatalf("ReadSpec: %v", err)
	}
	if rec.Meta == nil || *rec.Meta != sharded {
		t.Fatalf("journaled spec = %+v, want meta %+v", rec, sharded)
	}
	// Resume builds the spec from the journaled Meta the same way; the
	// crowd is wrapped here so that a question would be counted.
	spec, err := BuildSpec(*rec.Meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	c := &countingCrowd{inner: spec.Crowd}
	spec.Crowd = c
	j2, err := m2.ResumeSpec(j1.ID, spec)
	if err != nil {
		t.Fatalf("ResumeSpec: %v", err)
	}
	got, err := j2.Wait()
	if err != nil || j2.State() != StateDone {
		t.Fatalf("resumed run: state %s, err %v", j2.State(), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed Result differs from the run without shard counts (matches %d vs %d, cost %v vs %v)",
			len(got.Matches), len(want.Matches), got.Accounting.Cost, want.Accounting.Cost)
	}
	if c.total != 0 {
		t.Errorf("resume of a finished job asked the crowd %d times", c.total)
	}
}

// TestManagerDrain pins graceful shutdown: Drain cancels the running job
// (which stops at its next crowd batch with labels flushed), waits for the
// pool, and leaves the manager closed to new submissions.
func TestManagerDrain(t *testing.T) {
	meta := testMeta(3, 0.3, 0.05)
	m, err := NewManager(Options{Workers: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != StateRunning && time.Now().Before(deadline) {
		if j.State().Terminal() {
			break // fast machine: job finished before we drained; still valid
		}
		time.Sleep(time.Millisecond)
	}

	m.Drain()

	if st := j.State(); !st.Terminal() {
		t.Fatalf("after Drain, job state = %s, want terminal", st)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("after Drain, job Done channel still open")
	}
	if _, err := m.Submit(Spec{Meta: &meta}); err == nil {
		t.Fatal("drained manager accepted a new job")
	}
	// Idempotent.
	m.Drain()
}

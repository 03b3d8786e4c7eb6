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

	"github.com/corleone-em/corleone/internal/engine"
)

// shardedMeta is a job whose blocking step actually runs the sharded
// strategy: t_B is forced below the scaled Cartesian product, K=2 shards
// are requested explicitly, and the profile/seed are ones whose learned
// blocking rules anchor an indexable feature (a rule set anchored only on
// non-indexable features falls back to the exhaustive scan, which shards
// cannot accelerate).
func shardedMeta(seed int64) Meta {
	return Meta{
		Profile: "citations",
		Scale:   0.15,
		Seed:    seed,
		TB:      1,
		Shards:  2,
	}
}

// TestHealthzAndMetrics pins the observability surface: /healthz answers
// while the service is up, and /metrics reflects job states, shard task
// dispatches, and journal bytes as work flows through the manager.
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

	meta := shardedMeta(5)
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
	if mm.ShardTasksDispatched == 0 {
		t.Error("sharded blocking ran but no shard tasks were counted")
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

// TestShardCountCapped submits shardedMeta(6) — the job faultkit's
// shardChaosMeta describes — with an absurd shard count. shard.Choose caps
// every K, so the job ends with the Result of the K=2 run instead of
// partitioning table B 2²⁸ ways: an allocation that, uncapped, killed the
// process and every job in it.
func TestShardCountCapped(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline runs in -short mode")
	}
	run := func(meta Meta) (*engine.Result, int64) {
		t.Helper()
		m, err := NewManager(Options{Workers: 1})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		defer m.Close()
		j, err := m.Submit(Spec{Meta: &meta})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("Shards=%d: %v", meta.Shards, err)
		}
		return res, m.Metrics().ShardTasksDispatched
	}
	meta := shardedMeta(6)
	want, tasks := run(meta)
	meta.Shards = 1 << 28
	got, capped := run(meta)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Shards=2^28: Result differs from Shards=2 (matches %d vs %d, cost %v vs %v)",
			len(got.Matches), len(want.Matches), got.Accounting.Cost, want.Accounting.Cost)
	}
	if tasks == 0 || capped != tasks*64/2 {
		t.Errorf("dispatched %d tasks at Shards=2 and %d at Shards=2^28, want the second 32× the first (K capped at 64)",
			tasks, capped)
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

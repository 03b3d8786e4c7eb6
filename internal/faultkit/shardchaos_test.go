package faultkit

// The shard chaos suite proves the tentpole's distributed claim under
// fire: sharded blocking fanned out to shard-worker HTTP processes must
// produce a job result bit-identical to the in-process run even when the
// transport injects 5xx faults and a worker process crashes mid-run,
// losing all loaded state. Failover rides the coordinator's retry loop
// (attempt n of a shard's task rotates endpoints); a restarted worker
// rejoins through the 412 lazy-load handshake with zero state transfer,
// because a job spec plus the deterministic generator is the state.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/runsvc"
	"github.com/corleone-em/corleone/internal/shard"
)

// shardChaosMeta mirrors the runsvc shard tests: a profile/seed whose
// learned rules anchor an indexable feature (so the sharded strategy
// actually runs), t_B forced low enough that blocking engages at this
// scale, and K=2 shards.
func shardChaosMeta() runsvc.Meta {
	return runsvc.Meta{Profile: "citations", Scale: 0.15, Seed: 6, TB: 1, Shards: 2}
}

// runSharded runs one Meta job through a manager — remotely when
// endpoints are given, in-process otherwise — and returns the result plus
// the manager's final metrics. batch pins the coordinator's claim size on
// the remote path: 1 forces one round trip per task (the deterministic
// request counts the fault schedules below assume), 0 takes the batched
// default.
func runSharded(t *testing.T, meta runsvc.Meta, endpoints []string, batch int) (*engine.Result, runsvc.Metrics) {
	t.Helper()
	m, err := runsvc.NewManager(runsvc.Options{Workers: 1, ShardEndpoints: endpoints, ShardBatch: batch}) //corlint:allow det-time — the journaling service stamps operator-facing submission times; replay correctness never reads them back
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	j, err := m.Submit(runsvc.Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	return res, m.Metrics()
}

// assertShardResult asserts bit-identical convergence with the baseline.
func assertShardResult(t *testing.T, res, base *engine.Result) {
	t.Helper()
	if res.Accounting != base.Accounting {
		t.Errorf("accounting diverged:\n got  %+v\n want %+v", res.Accounting, base.Accounting)
	}
	if res.True != base.True {
		t.Errorf("true accuracy = %+v, want %+v", res.True, base.True)
	}
	if res.EstimatedF1 != base.EstimatedF1 {
		t.Errorf("estimated F1 = %v, want %v", res.EstimatedF1, base.EstimatedF1)
	}
	if res.StopReason != base.StopReason {
		t.Errorf("stop reason = %q, want %q", res.StopReason, base.StopReason)
	}
	if res.Iterations != base.Iterations {
		t.Errorf("iterations = %d, want %d", res.Iterations, base.Iterations)
	}
	if len(res.Matches) != len(base.Matches) {
		t.Fatalf("%d matches, want %d", len(res.Matches), len(base.Matches))
	}
	for i := range base.Matches {
		if res.Matches[i] != base.Matches[i] {
			t.Fatalf("match %d = %v, want %v (order must be identical)", i, res.Matches[i], base.Matches[i])
		}
	}
}

// restartingWorker simulates a shard-worker process crash: after crashAt
// probe requests it severs the in-flight connection and replaces its
// shard.Worker with a fresh one — every loaded job is gone, exactly as if
// the process had been killed and restarted on the same address.
type restartingWorker struct {
	mu      sync.Mutex
	w       *shard.Worker
	crashAt int
	probes  int
	gens    []*shard.Worker
}

func newRestartingWorker(crashAt int) *restartingWorker {
	w := shard.NewWorker()
	return &restartingWorker{w: w, crashAt: crashAt, gens: []*shard.Worker{w}}
}

func (r *restartingWorker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	if req.URL.Path == "/shard/probe" {
		r.probes++
		if r.probes == r.crashAt {
			fresh := shard.NewWorker()
			r.w = fresh
			r.gens = append(r.gens, fresh)
			r.mu.Unlock()
			panic(http.ErrAbortHandler) // the in-flight probe dies with the process
		}
	}
	w := r.w
	r.mu.Unlock()
	w.Handler().ServeHTTP(rw, req)
}

// generations returns every worker incarnation this endpoint has hosted.
func (r *restartingWorker) generations() []*shard.Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*shard.Worker(nil), r.gens...)
}

func TestShardWorkerChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("shard chaos suite in -short mode")
	}
	meta := shardChaosMeta()
	base, baseMetrics := runSharded(t, meta, nil, 0)
	if baseMetrics.ShardTasksDispatched == 0 {
		t.Fatal("baseline never dispatched a shard task; the sharded strategy did not run")
	}

	// Every probe routed to worker 0 answers 503 until the schedule's
	// budget is spent; each faulted task fails over to worker 1, which
	// serves it behind injected latency (the straggler side — completions
	// arrive out of order and the merge must not care). The fault count
	// and the retry count are deterministic: exactly Limit faults fire,
	// and each one forces exactly one coordinator retry.
	t.Run("5xx-failover", func(t *testing.T) {
		bad := &Schedule{Seed: 201, P5xx: 1.0, Limit: 2}
		slow := &Schedule{Seed: 202, PLatency: 0.5, Latency: 3 * time.Millisecond, Limit: 30}
		w0, w1 := shard.NewWorker(), shard.NewWorker()
		srv0 := httptest.NewServer(bad.Handler(w0.Handler()))
		defer srv0.Close()
		srv1 := httptest.NewServer(slow.Handler(w1.Handler()))
		defer srv1.Close()

		res, mm := runSharded(t, meta, []string{srv0.URL, srv1.URL}, 1)
		assertShardResult(t, res, base)
		if got := bad.Injected(); got != 2 {
			t.Errorf("5xx schedule injected %d faults, want exactly its limit of 2", got)
		}
		if mm.ShardTasksRetried < 2 {
			t.Errorf("%d task retries, want >= 2 (one per injected 503)", mm.ShardTasksRetried)
		}
		if mm.ShardTasksDispatched != baseMetrics.ShardTasksDispatched {
			t.Errorf("dispatched %d tasks, baseline dispatched %d — task plan must not depend on faults",
				mm.ShardTasksDispatched, baseMetrics.ShardTasksDispatched)
		}
	})

	// Worker 0 crashes on its third probe and restarts empty. The killed
	// probe retries onto worker 1; the restarted incarnation answers 412
	// to its next probe, gets the job spec re-POSTed, rebuilds the dataset
	// and its shard indexes from the seed, and rejoins the run.
	t.Run("worker-crash-restart", func(t *testing.T) {
		rw := newRestartingWorker(3)
		srv0 := httptest.NewServer(rw)
		defer srv0.Close()
		w1 := shard.NewWorker()
		srv1 := httptest.NewServer(w1.Handler())
		defer srv1.Close()

		res, mm := runSharded(t, meta, []string{srv0.URL, srv1.URL}, 1)
		assertShardResult(t, res, base)
		gens := rw.generations()
		if len(gens) != 2 {
			t.Fatalf("worker restarted %d times, want exactly 1", len(gens)-1)
		}
		if gens[1].Stats().JobsLoaded.Load() == 0 {
			t.Error("restarted worker never re-loaded the job via the 412 handshake")
		}
		if gens[1].Stats().Probes.Load() == 0 {
			t.Error("restarted worker rejoined but served no probes")
		}
		// No retry-count assertion here: the Idempotency-Key header marks
		// probes replayable, so net/http may re-send the killed request
		// itself before the coordinator ever sees an error — the crash is
		// absorbed below the retry loop. The 5xx case above pins the
		// coordinator-level retry path deterministically.
		if mm.ShardTasksDispatched != baseMetrics.ShardTasksDispatched {
			t.Errorf("dispatched %d tasks, baseline dispatched %d — task plan must not depend on crashes",
				mm.ShardTasksDispatched, baseMetrics.ShardTasksDispatched)
		}
	})

	// Batched transport under fire: worker 0 dies mid-way through streaming
	// a batch response — some per-task frames flushed, the rest lost with
	// the connection. The executor must keep the delivered prefix (no
	// completed task is re-paid: dispatched stays at the baseline count) and
	// re-run only the undelivered tail as groups of one, where failover
	// routes it to worker 1. Runs at the default batch size — the
	// production wire path.
	t.Run("mid-batch-stream-kill", func(t *testing.T) {
		mk := newMidStreamKiller(shard.NewWorker().Handler(), 2)
		srv0 := httptest.NewServer(mk)
		defer srv0.Close()
		w1 := shard.NewWorker()
		srv1 := httptest.NewServer(w1.Handler())
		defer srv1.Close()

		res, mm := runSharded(t, meta, []string{srv0.URL, srv1.URL}, 0)
		assertShardResult(t, res, base)
		if mk.kills() != 1 {
			t.Errorf("kill schedule fired %d times, want exactly 1", mk.kills())
		}
		if mm.ShardTasksRetried == 0 {
			t.Error("a torn batch retried nothing — the lost tail was never re-run")
		}
		if mm.ShardTasksDispatched != baseMetrics.ShardTasksDispatched {
			t.Errorf("dispatched %d tasks, baseline dispatched %d — a torn batch must not re-pay completed work",
				mm.ShardTasksDispatched, baseMetrics.ShardTasksDispatched)
		}
		if mm.ShardBytesSent == 0 || mm.ShardBytesReceived == 0 {
			t.Errorf("transport byte accounting empty: sent %d, received %d",
				mm.ShardBytesSent, mm.ShardBytesReceived)
		}
	})
}

// midStreamKiller severs the first batched /shard/probe response after a
// fixed number of per-task frames have flushed — the connection dies with
// frames on the wire, exactly like a worker process killed mid-stream.
// A run of one task flushes a single frame, below the threshold, so only a
// batch can trip it; it fires once and serves cleanly afterwards.
type midStreamKiller struct {
	inner       http.Handler
	afterFrames int

	mu     sync.Mutex
	fired  bool
	nkills int
}

func newMidStreamKiller(inner http.Handler, afterFrames int) *midStreamKiller {
	return &midStreamKiller{inner: inner, afterFrames: afterFrames}
}

func (k *midStreamKiller) kills() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nkills
}

func (k *midStreamKiller) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	k.mu.Lock()
	armed := !k.fired && req.URL.Path == "/shard/probe"
	k.mu.Unlock()
	if !armed {
		k.inner.ServeHTTP(rw, req)
		return
	}
	k.inner.ServeHTTP(&killingWriter{ResponseWriter: rw, killer: k}, req)
}

// killingWriter counts the worker's per-frame flushes and aborts the
// handler once the threshold is reached; net/http tears the connection
// down without a graceful close, so the client sees a truncated stream.
type killingWriter struct {
	http.ResponseWriter
	killer  *midStreamKiller
	flushes int
}

func (w *killingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.flushes++
	if w.flushes < w.killer.afterFrames {
		return
	}
	w.killer.mu.Lock()
	if w.killer.fired {
		w.killer.mu.Unlock()
		return
	}
	w.killer.fired = true
	w.killer.nkills++
	w.killer.mu.Unlock()
	panic(http.ErrAbortHandler)
}

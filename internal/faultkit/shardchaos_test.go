package faultkit

// The shard chaos suite drives the remote shard executor under fire: the
// survivor stream a Coordinator emits over shard-worker HTTP servers must
// equal the in-process executor's even when the transport injects 5xx
// faults, a worker process crashes mid-run losing all loaded state, or a
// batched response is cut mid-stream. Failover rides the coordinator's
// retry loop (attempt n of a shard's task rotates endpoints); a restarted
// worker rejoins through the 412 lazy-load handshake with zero state
// transfer, because a job spec plus the deterministic generator is the
// state.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/runsvc"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// shardChaosMeta names the chaos schedules' dataset and shard count: a
// profile/seed whose learned rules anchor an indexable feature, t_B forced
// low enough that blocking engages at this scale, and K=2 shards. runsvc
// ignores the count (blocking probes one index); the schedules probe the
// dataset at its K through the shard library directly.
func shardChaosMeta() runsvc.Meta {
	return runsvc.Meta{Profile: "citations", Scale: 0.15, Seed: 6, TB: 1, Shards: 2}
}

// shardJob is shardChaosMeta's dataset at its K, probed at the coordinator
// level the way the benchmark's transport probe does it: the developer rule
// for Citations (title word-Jaccard <= 0.12 → no match) as the one rule and
// its anchor.
type shardJob struct {
	recipe shard.JobSpec
	params shard.JobParams
	tasks  []shard.Task
	local  shard.Executor
}

func newShardJob(t *testing.T) *shardJob {
	t.Helper()
	const theta = 0.12
	meta := shardChaosMeta()
	recipe := shard.JobSpec{Dataset: meta.Profile, Scale: meta.Scale, Noise: meta.Noise}
	ds, err := datagen.DatasetFor(recipe.Dataset, recipe.Scale, recipe.Noise)
	if err != nil {
		t.Fatal(err)
	}
	ex := feature.NewExtractor(ds)
	feat := -1
	for i, f := range ex.Features() {
		if f.Name == "title_jaccard_w" {
			feat = i
		}
	}
	if feat < 0 {
		t.Fatal("no title_jaccard_w feature")
	}
	rules := []tree.Rule{{Preds: []tree.Predicate{{Feature: feat, Op: tree.LE, Threshold: theta}}}}
	kind, _ := simindex.KindOf("jaccard_w")
	profA, profB := ex.Profiles(feat)
	return &shardJob{
		recipe: recipe,
		params: shard.JobParams{Job: "shard-chaos", Shards: meta.Shards, Feature: feat, Theta: theta, Rules: rules},
		tasks:  shard.BlockTasks("shard-chaos", len(profA), meta.Shards),
		local:  shard.NewLocalExecutor(ex, shard.BuildGroup(kind, profB, meta.Shards), profA, rules, theta),
	}
}

// run drives the job's tasks through a coordinator over exec, claiming runs
// of at most batch tasks, and returns the survivor lists in emission order
// with the run's counters.
func (j *shardJob) run(t *testing.T, exec shard.Executor, stats *shard.Stats, batch int) [][]record.Pair {
	t.Helper()
	coord := &shard.Coordinator{Workers: 2, Batch: batch, Backoff: 50 * time.Millisecond, Stats: stats}
	var out [][]record.Pair
	if err := coord.Run(j.tasks, exec, func(_ int, pairs []record.Pair) { out = append(out, pairs) }); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return out
}

// runRemote runs the job over the given worker endpoints.
func (j *shardJob) runRemote(t *testing.T, endpoints []string, batch int) ([][]record.Pair, *shard.Stats) {
	t.Helper()
	stats := &shard.Stats{}
	remote := shard.NewRemoteExecutor(endpoints, j.recipe, nil)
	params := j.params
	params.Stats = stats
	remote.BindJob(params)
	return j.run(t, remote, stats, batch), stats
}

// assertSameStream asserts list-for-list equality with the baseline stream
// (an empty list equals a nil one).
func assertSameStream(t *testing.T, got, want [][]record.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d survivor lists, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("task %d kept %d pairs, want %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("task %d pair %d = %v, want %v (order must be identical)", i, k, got[i][k], want[i][k])
			}
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
	job := newShardJob(t)
	baseStats := &shard.Stats{}
	base := job.run(t, job.local, baseStats, 1)
	baseDispatched := baseStats.Dispatched.Load()
	survivors := 0
	for _, pairs := range base {
		survivors += len(pairs)
	}
	if baseDispatched == 0 || survivors == 0 {
		t.Fatalf("baseline dispatched %d tasks and kept %d pairs; the suite would check nothing",
			baseDispatched, survivors)
	}
	batched := 16 * job.params.Shards // the benchmark's claim size

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

		got, stats := job.runRemote(t, []string{srv0.URL, srv1.URL}, 1)
		assertSameStream(t, got, base)
		if got := bad.Injected(); got != 2 {
			t.Errorf("5xx schedule injected %d faults, want exactly its limit of 2", got)
		}
		if r := stats.Retried.Load(); r < 2 {
			t.Errorf("%d task retries, want >= 2 (one per injected 503)", r)
		}
		if d := stats.Dispatched.Load(); d != baseDispatched {
			t.Errorf("dispatched %d tasks, baseline dispatched %d — task plan must not depend on faults",
				d, baseDispatched)
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

		got, stats := job.runRemote(t, []string{srv0.URL, srv1.URL}, 1)
		assertSameStream(t, got, base)
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
		if d := stats.Dispatched.Load(); d != baseDispatched {
			t.Errorf("dispatched %d tasks, baseline dispatched %d — task plan must not depend on crashes",
				d, baseDispatched)
		}
	})

	// Batched transport under fire: worker 0 dies mid-way through streaming
	// a batch response — some per-task frames flushed, the rest lost with
	// the connection. The executor must keep the delivered prefix (no
	// completed task is re-paid: dispatched stays at the baseline count) and
	// re-run only the undelivered tail as groups of one, where failover
	// routes it to worker 1. Runs at the benchmark's batch size.
	t.Run("mid-batch-stream-kill", func(t *testing.T) {
		mk := newMidStreamKiller(shard.NewWorker().Handler(), 2)
		srv0 := httptest.NewServer(mk)
		defer srv0.Close()
		w1 := shard.NewWorker()
		srv1 := httptest.NewServer(w1.Handler())
		defer srv1.Close()

		got, stats := job.runRemote(t, []string{srv0.URL, srv1.URL}, batched)
		assertSameStream(t, got, base)
		if mk.kills() != 1 {
			t.Errorf("kill schedule fired %d times, want exactly 1", mk.kills())
		}
		if stats.Retried.Load() == 0 {
			t.Error("a torn batch retried nothing — the lost tail was never re-run")
		}
		if d := stats.Dispatched.Load(); d != baseDispatched {
			t.Errorf("dispatched %d tasks, baseline dispatched %d — a torn batch must not re-pay completed work",
				d, baseDispatched)
		}
		if stats.BytesSent.Load() == 0 || stats.BytesReceived.Load() == 0 {
			t.Errorf("transport byte accounting empty: sent %d, received %d",
				stats.BytesSent.Load(), stats.BytesReceived.Load())
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
	fire := !w.killer.fired
	if fire {
		w.killer.fired = true
		w.killer.nkills++
	}
	w.killer.mu.Unlock()
	if fire {
		panic(http.ErrAbortHandler)
	}
}

package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/corleone-em/corleone/internal/platform"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/tree"
)

// TaskBlockRows is how many probe (table A) rows one shard task covers:
// small enough to load-balance skewed postings, large enough to amortize
// the coordinator handoff.
const TaskBlockRows = 64

// Task is one unit of shard work: probe the anchor feature's index on one
// shard of table B for a block of table A rows, and verify every candidate
// against the job's rule set. A task is a pure function of its fields plus
// the job's loaded parameters (JobSpec) and deterministic dataset, which
// is what makes re-execution after a worker crash — on any process —
// idempotent: the retried task returns byte-identical survivors.
//
// The struct is the wire format the remote executor POSTs to shard
// workers, and it is deliberately lean: the per-job constants — the rule
// set, anchor feature, and probe threshold — live in the job's /shard/load
// spec (JobSpec), not here. A job at scale-1m dispatches ~(na/64)×K tasks;
// re-marshaling the rule set into every one of them is what made the PR 6
// wire format communication-bound. A probe request is now a few dozen
// bytes regardless of how many rules the planner selected.
type Task struct {
	// Job identifies the deterministic job the task belongs to; remote
	// workers use it to look up (or lazily rebuild) the job's dataset,
	// extractor, rules, and shard index.
	Job string `json:"job"`
	// Seq is the task's position in the job's emission order: block-major,
	// shard-minor (Seq = block×Shards + Shard). The coordinator emits
	// results in Seq order regardless of completion order.
	Seq int64 `json:"seq"`
	// ALo and AHi bound the task's probe rows: [ALo, AHi) of table A.
	ALo int32 `json:"a_lo"`
	AHi int32 `json:"a_hi"`
	// Shard is which of Shards partitions of table B this task probes.
	// Shards is carried for validation: a task and its loaded job must
	// agree on the partition width or the probe is rejected.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
}

// JobParams are the per-job constants every task of one blocking job
// shares: the id tasks carry, the partition width, the anchor feature and
// probe threshold, and the full rule set candidates are verified against.
// The planner binds them to the executor once per run (see JobBinder);
// tasks then stay lean on the wire.
type JobParams struct {
	Job     string
	Shards  int
	Feature int
	Theta   float64
	Rules   []tree.Rule
	// Stats, when non-nil, receives the executor's transport accounting
	// (bytes sent/received) in addition to the coordinator's task counts.
	Stats *Stats
}

// JobBinder is implemented by executors that need the job's parameters
// before tasks flow — the remote executor stamps them into its /shard/load
// spec. The coordinator's caller binds once, before Run; executors that
// carry their bindings from construction (LocalExecutor) don't implement
// it.
type JobBinder interface {
	BindJob(p JobParams)
}

// Executor runs one task and returns its surviving pairs in (a, b) order.
// attempt is 0 for the first try and increments on coordinator retries —
// remote executors use it to rotate endpoints (failover) and to count
// dispatches vs. retries. The returned slice must be freshly allocated or
// otherwise safe for the coordinator to retain until emission.
type Executor interface {
	Probe(t Task, attempt int) ([]record.Pair, error)
}

// BatchExecutor is the pipelined fast path: ProbeBatch runs a run of
// same-shard tasks against one endpoint in a single round trip, with the
// per-task results streamed back as they complete. results[i] corresponds
// to tasks[i]; a non-nil error means the stream ended early and results
// holds only the completed prefix — the coordinator re-runs the remainder
// at single-task granularity (Probe), so work that already streamed back
// is never re-paid. A nil error guarantees len(results) == len(tasks).
type BatchExecutor interface {
	Executor
	ProbeBatch(tasks []Task, attempt int) (results [][]record.Pair, err error)
}

// Stats counts shard task and transport activity; all fields are atomics,
// safe to read while a run is in flight (runsvc's /metrics does).
type Stats struct {
	// Dispatched counts first attempts; Retried counts re-attempts after a
	// retryable failure. A task carried by a batch counts exactly once in
	// Dispatched (the batch attempt is its first), and each single-task
	// re-run after a torn batch counts in Retried.
	Dispatched atomic.Int64
	Retried    atomic.Int64
	// BytesSent and BytesReceived count request and response payload bytes
	// on the remote transport (HTTP bodies, not headers). Local execution
	// moves no bytes and leaves them zero.
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
}

// Coordinator fans tasks out to Workers goroutines over an Executor and
// delivers results to the caller strictly in task order behind a bounded
// reorder window — completion order, retries, and failover cannot move a
// result's position in the output stream. The zero value is usable.
type Coordinator struct {
	// Workers is the fan-out width (<=0 means GOMAXPROCS).
	Workers int
	// MaxAttempts bounds tries per task, first included (<=0 means 3).
	MaxAttempts int
	// Window bounds how many tasks may be claimed ahead of the emission
	// frontier (<=0 means Workers×4, floored at Batch) — the reorder
	// buffer's size cap.
	Window int
	// Batch is the largest run of consecutive tasks one worker claims per
	// iteration (<=0 means 1). It only matters when the executor is a
	// BatchExecutor: the run is split by shard into same-endpoint batches
	// probed in one round trip each. Emission order and retry semantics
	// are identical at every batch size.
	Batch int
	// Backoff, when > 0, is slept between a task's attempts, scaled by the
	// attempt number. Local executors leave it 0; the remote path sets it
	// so a crashed worker's restart window isn't busy-spun through.
	Backoff time.Duration
	// Stats, when non-nil, receives dispatch/retry counts.
	Stats *Stats
}

// taskRetryable decides whether a failed attempt is worth re-running. It
// defers to the platform transport's classification — 5xx and transport
// failures retry, other 4xx cannot improve — except that an open circuit
// IS retryable here: the next attempt rotates to a different endpoint, so
// failing fast on one breaker should trigger failover, not abort the job.
// So is a 412: the remote executor already answers a worker's first "unknown
// job" by loading the spec and probing again, so one that reaches here means
// the worker forgot the job a second time — it restarted between the load
// and the retried probe — and the next attempt simply loads again.
func taskRetryable(err error) bool {
	if errors.Is(err, platform.ErrCircuitOpen) || isUnloaded(err) {
		return true
	}
	return platform.Retryable(err)
}

// coordRun is one Run's shared state: a claim/complete sequencer in the
// mold of the blocker's, plus first-error capture.
type coordRun struct {
	mu     sync.Mutex
	cond   *sync.Cond
	next   int
	emit   int
	n      int
	window int
	failed bool
	err    error
	done   map[int][]record.Pair
}

// claimRun hands out the next run of up to max consecutive task indexes,
// blocking while the caller is a full window ahead of emission; ok=false
// when tasks are exhausted or the run has failed. The run never extends
// past the window: a claim of max tasks can start only when the reorder
// buffer has room for at least one, and is truncated to the room left —
// so the backpressure bound ("never more than Window tasks beyond the
// frontier") holds at every batch size.
func (s *coordRun) claimRun(max int) (lo, n int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.failed && s.next < s.n && s.next-s.emit >= s.window {
		s.cond.Wait()
	}
	if s.failed || s.next >= s.n {
		return 0, 0, false
	}
	n = max
	if room := s.window - (s.next - s.emit); n > room {
		n = room
	}
	if rem := s.n - s.next; n > rem {
		n = rem
	}
	lo = s.next
	s.next += n
	return lo, n, true
}

// fail records the run's first terminal error and wakes blocked claimers.
func (s *coordRun) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.failed {
		s.failed = true
		s.err = err
	}
	s.cond.Broadcast()
}

// complete records a task's result and drains every ready result, in task
// order, to emit. Drain runs under the lock, so emit calls are serialized
// and ordered.
func (s *coordRun) complete(i int, pairs []record.Pair, emit func(int, []record.Pair)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return
	}
	s.done[i] = pairs
	for {
		out, ok := s.done[s.emit]
		if !ok {
			break
		}
		delete(s.done, s.emit)
		emit(s.emit, out)
		s.emit++
	}
	s.cond.Broadcast()
}

// Run executes tasks over exec and calls emit(i, pairs) exactly once per
// task, in ascending slice order, regardless of which worker finished
// which task when. tasks must already be in Seq order (BlockTasks produces
// such a slice). Each task is attempted up to MaxAttempts times while its
// failures stay retryable; the first terminal failure aborts the run and
// is returned. On error, emission stops at the last contiguous prefix of
// completed tasks — no out-of-order or duplicated delivery ever occurs.
//
// When exec is a BatchExecutor and Batch > 1, workers claim runs of
// consecutive tasks, split each run by shard (consecutive tasks of one
// shard route to one endpoint), and probe each group in a single streamed
// round trip. A batch that fails mid-stream completes its delivered
// prefix normally; the remainder falls back to single-task attempts with
// the usual retry/failover accounting, so a torn batch never re-pays
// completed work and never changes the output stream.
func (c *Coordinator) Run(tasks []Task, exec Executor, emit func(i int, pairs []record.Pair)) error {
	n := len(tasks)
	if n == 0 {
		return nil
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	batch := c.Batch
	be, batchable := exec.(BatchExecutor)
	if batch < 1 || !batchable {
		batch = 1
	}
	window := c.Window
	if window <= 0 {
		window = workers * 4
	}
	if window < batch {
		// A window smaller than the batch would silently shrink every
		// claim; grow it so the configured batch size is reachable.
		window = batch
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	st := &coordRun{n: n, window: window, done: make(map[int][]record.Pair)}
	st.cond = sync.NewCond(&st.mu)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var shardOrder []int
			groups := make(map[int][]int)
			for {
				lo, cnt, ok := st.claimRun(batch)
				if !ok {
					return
				}
				if cnt == 1 {
					if !c.runSingle(st, tasks, lo, 0, maxAttempts, exec, emit) {
						return
					}
					continue
				}
				// Split the claimed run by shard: the shard-minor layout
				// strides one shard's tasks k apart, and one shard routes
				// to one endpoint per attempt — so each group is a single
				// round trip to a single worker.
				shardOrder = shardOrder[:0]
				for i := lo; i < lo+cnt; i++ {
					s := tasks[i].Shard
					if _, seen := groups[s]; !seen {
						shardOrder = append(shardOrder, s)
					}
					groups[s] = append(groups[s], i)
				}
				failed := false
				for _, s := range shardOrder {
					if !c.runBatch(st, tasks, groups[s], be, exec, maxAttempts, emit) {
						failed = true
						break
					}
				}
				for _, s := range shardOrder {
					delete(groups, s)
				}
				if failed {
					return
				}
			}
		}()
	}
	wg.Wait()
	return st.err
}

// runBatch probes one same-shard group in a single round trip, completes
// the streamed prefix, and re-runs whatever the stream did not deliver at
// single-task granularity. Returns false when the run has failed.
func (c *Coordinator) runBatch(st *coordRun, tasks []Task, idx []int,
	be BatchExecutor, exec Executor, maxAttempts int, emit func(int, []record.Pair)) bool {

	group := make([]Task, len(idx))
	for j, i := range idx {
		group[j] = tasks[i]
	}
	if c.Stats != nil {
		c.Stats.Dispatched.Add(int64(len(group)))
	}
	results, err := be.ProbeBatch(group, 0)
	if len(results) > len(group) {
		results = results[:len(group)]
	}
	for j, pairs := range results {
		st.complete(idx[j], pairs, emit)
	}
	if err == nil && len(results) == len(group) {
		return true
	}
	if err != nil && !taskRetryable(err) {
		t := group[len(results)]
		st.fail(fmt.Errorf("shard: batch task %d (shard %d/%d, rows [%d,%d)): %w",
			t.Seq, t.Shard, t.Shards, t.ALo, t.AHi, err))
		return false
	}
	// The batch tore (or under-delivered): each undelivered task retries
	// alone, starting at attempt 1 — the batch was its first attempt — so
	// failover routing engages immediately and the per-task attempt bound
	// still counts the batch try.
	for j := len(results); j < len(idx); j++ {
		if !c.runSingle(st, tasks, idx[j], 1, maxAttempts, exec, emit) {
			return false
		}
	}
	return true
}

// runSingle drives one task through the attempt loop, completing it or
// failing the run. firstAttempt is 0 for a fresh dispatch and 1 when a
// torn batch already consumed the task's first attempt. Returns false
// when the run has failed.
func (c *Coordinator) runSingle(st *coordRun, tasks []Task, i, firstAttempt, maxAttempts int,
	exec Executor, emit func(int, []record.Pair)) bool {

	t := tasks[i]
	var pairs []record.Pair
	var err error
	attempted := false
	for attempt := firstAttempt; attempt < maxAttempts; attempt++ {
		attempted = true
		if c.Stats != nil {
			if attempt == 0 {
				c.Stats.Dispatched.Add(1)
			} else {
				c.Stats.Retried.Add(1)
			}
		}
		if attempt > 0 && c.Backoff > 0 {
			time.Sleep(time.Duration(attempt) * c.Backoff)
		}
		pairs, err = exec.Probe(t, attempt)
		if err == nil || !taskRetryable(err) {
			break
		}
	}
	if !attempted {
		// MaxAttempts == 1 and the only attempt was the torn batch.
		err = errors.New("attempt budget exhausted by a torn batch")
	}
	if err != nil {
		st.fail(fmt.Errorf("shard: task %d (shard %d/%d, rows [%d,%d)): %w",
			t.Seq, t.Shard, t.Shards, t.ALo, t.AHi, err))
		return false
	}
	st.complete(i, pairs, emit)
	return true
}

// BlockTasks lays out a blocking job's task list: block-major, shard-minor
// over na probe rows and k shards, with Seq equal to the slice index. The
// layout is what makes the per-block K-way merge possible downstream — the
// k tasks for one probe block arrive consecutively — and what makes batch
// claiming effective: a run of consecutive tasks contains each shard's
// tasks in consecutive blocks.
func BlockTasks(job string, na, k int) []Task {
	if na <= 0 || k < 1 {
		return nil
	}
	blocks := (na + TaskBlockRows - 1) / TaskBlockRows
	tasks := make([]Task, 0, blocks*k)
	for b := 0; b < blocks; b++ {
		lo := int32(b * TaskBlockRows)
		hi := lo + TaskBlockRows
		if hi > int32(na) {
			hi = int32(na)
		}
		for s := 0; s < k; s++ {
			tasks = append(tasks, Task{
				Job:    job,
				Seq:    int64(len(tasks)),
				ALo:    lo,
				AHi:    hi,
				Shard:  s,
				Shards: k,
			})
		}
	}
	return tasks
}

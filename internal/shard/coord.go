package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/platform"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
	"github.com/corleone-em/corleone/internal/tree"
)

// TaskBlockRows is how many probe (table A) rows one shard task covers:
// small enough to load-balance skewed postings, large enough to amortize
// the coordinator handoff.
const TaskBlockRows = 64

// Task is one unit of shard work: probe the job's indexes on one shard of
// table B for a block of table A rows, and verify every candidate against
// the job's rule set. A task is a pure function of its fields plus
// the job's loaded parameters (JobSpec) and deterministic dataset, which
// is what makes re-execution after a worker crash — on any process —
// idempotent: the retried task returns byte-identical survivors.
//
// The struct is the wire format the remote executor POSTs to shard
// workers, and it is deliberately lean: the per-job constants — the rule
// set and the probe list — live in the job's /shard/load
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
// shares: the id tasks carry, the partition width, the probe list whose
// union generates the candidates, and the full rule set candidates are
// verified against. The planner binds them to the executor once per run
// (see JobBinder); tasks then stay lean on the wire.
type JobParams struct {
	Job    string
	Shards int
	// Probes is the candidate union. Left empty, Feature and Theta name the
	// single probe of a one-feature anchor.
	Probes  []Probe
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

// Executor probes a run of tasks that share a shard (and so an endpoint)
// and returns one survivor list per task, each in (a, b) order: results[i]
// belongs to tasks[i]. A single task is a run of one. attempt is 0 for the
// first try and increments on coordinator retries — remote executors use it
// to rotate endpoints (failover). A non-nil error means the run ended early
// and results holds only the completed prefix; the coordinator re-runs just
// the remainder, so work that already came back is never re-paid. A nil
// error guarantees len(results) == len(tasks). The returned lists must be
// freshly allocated or otherwise safe for the coordinator to retain until
// emission.
type Executor interface {
	Probe(tasks []Task, attempt int) (results [][]record.Pair, err error)
}

// Stats counts shard task and transport activity; all fields are atomics,
// safe to read while a run is in flight (runsvc's /metrics does).
type Stats struct {
	// Dispatched counts first attempts; Retried counts re-attempts after a
	// retryable failure. A task carried by a batch counts exactly once in
	// Dispatched (the batch attempt is its first), and each re-run of a
	// task a torn batch left undelivered counts in Retried.
	Dispatched atomic.Int64
	Retried    atomic.Int64
	// BytesSent and BytesReceived count request and response payload bytes
	// on the remote transport (HTTP bodies, not headers). Local execution
	// moves no bytes and leaves them zero.
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
	// Candidates counts the pairs in-process probes generated and handed
	// to the verifier — the number a plan's estimate predicts. Remote
	// workers return survivors only, so remote runs leave it zero. It moves
	// with the shard count (Jaccard prefix filters order tokens by per-shard
	// postings lengths), which is why it lives here and not in a Result.
	Candidates atomic.Int64
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
	// iteration (<=0 means 1). The run is split by shard into same-endpoint
	// groups probed in one Executor call each. Emission order and retry
	// semantics are identical at every batch size.
	Batch int
	// Backoff, when > 0, is the retry policy's base wait between a task's
	// attempts (doubling, capped at maxBackoff; DESIGN.md §8.2). Local
	// executors leave it 0; the remote path sets it so a crashed worker's
	// restart window isn't busy-spun through.
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

// maxBackoff caps one wait between a task's attempts.
const maxBackoff = 2 * time.Second

// errShortRun marks a probe that reported success but answered fewer tasks
// than it was given; the missing tail is retried like a torn one.
var errShortRun = errors.New("shard: executor delivered fewer results than tasks")

// Run executes tasks over exec and calls emit(i, pairs) exactly once per
// task, in ascending slice order, regardless of which worker finished
// which task when (par.Ordered is the reorder window). tasks must already
// be in Seq order (BlockTasks produces such a slice). Each task is
// attempted up to MaxAttempts times while its failures stay retryable; the
// first terminal failure aborts the run and is returned. On error, emission
// stops at the last contiguous prefix of completed tasks — no out-of-order
// or duplicated delivery ever occurs.
//
// Workers claim runs of up to Batch consecutive tasks, split each run by
// shard (consecutive tasks of one shard route to one endpoint), and probe
// each group in a single Executor call; a claim of one task is a group of
// one. A group that fails mid-stream completes its delivered prefix
// normally; the remainder falls back to groups of one with the usual
// retry/failover accounting, so a torn batch never re-pays completed work
// and never changes the output stream.
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
	if batch < 1 {
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
	r := &dispatch{
		c:     c,
		tasks: tasks,
		exec:  exec,
		out:   par.NewOrdered(n, window, emit),
		policy: retry.Policy{Attempts: c.MaxAttempts, Base: c.Backoff, Max: maxBackoff}.
			Or(retry.Policy{Attempts: 3}),
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var shardOrder []int
			groups := make(map[int][]int)
			for {
				lo, cnt, ok := r.out.Claim(batch)
				if !ok {
					return
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
				for _, s := range shardOrder {
					if !r.runGroup(groups[s], 0) {
						return
					}
					delete(groups, s)
				}
			}
		}()
	}
	wg.Wait()
	return r.out.Err()
}

// dispatch is one Run's shared state.
type dispatch struct {
	c      *Coordinator
	tasks  []Task
	exec   Executor
	out    *par.Ordered[[]record.Pair]
	policy retry.Policy
}

// runGroup drives one same-shard group of task indexes, starting at
// attempt first, until every task is completed or the run has failed
// (false). A group of one retries in place through the policy. A longer
// group gets exactly one try: what it did not deliver continues as groups
// of one from the next attempt — the batch was their attempt first — so
// failover routing engages immediately and the per-task attempt bound
// still counts the batch try.
func (r *dispatch) runGroup(idx []int, first int) bool {
	group := make([]Task, len(idx))
	for j, i := range idx {
		group[j] = r.tasks[i]
	}
	policy := r.policy
	if len(idx) > 1 {
		policy.Attempts = first + 1
	}
	done := 0
	err := policy.Do(retry.Call{From: first, Retryable: taskRetryable}, func(attempt int) error {
		if st := r.c.Stats; st != nil {
			if attempt == 0 {
				st.Dispatched.Add(int64(len(group) - done))
			} else {
				st.Retried.Add(int64(len(group) - done))
			}
		}
		results, err := r.exec.Probe(group[done:], attempt)
		if len(results) > len(group)-done {
			results = results[:len(group)-done]
		}
		for _, pairs := range results {
			r.out.Complete(idx[done], pairs)
			done++
		}
		if err == nil && done < len(group) {
			err = errShortRun
		}
		return err
	})
	if err == nil {
		return true
	}
	if len(idx) > 1 && taskRetryable(err) {
		for _, i := range idx[done:] {
			if !r.runGroup([]int{i}, first+1) {
				return false
			}
		}
		return true
	}
	t := group[done]
	r.out.Fail(fmt.Errorf("shard: task %d (shard %d/%d, rows [%d,%d)): %w",
		t.Seq, t.Shard, t.Shards, t.ALo, t.AHi, err))
	return false
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

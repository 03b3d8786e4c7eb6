package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/record"
)

// scrambleExecutor returns synthetic per-task pairs after a delay derived
// from the task's Seq by a multiplicative hash — a deterministic but
// thoroughly scrambled completion order, the adversarial schedule for the
// coordinator's in-order-emission guarantee.
type scrambleExecutor struct {
	mu       sync.Mutex
	attempts map[int64]int
}

func (e *scrambleExecutor) Probe(tasks []Task, attempt int) ([][]record.Pair, error) {
	return eachTask(tasks, func(t Task) ([]record.Pair, error) {
		e.mu.Lock()
		if e.attempts == nil {
			e.attempts = make(map[int64]int)
		}
		e.attempts[t.Seq]++
		e.mu.Unlock()
		delay := time.Duration((uint64(t.Seq)*2654435761)%7) * time.Millisecond
		time.Sleep(delay)
		return []record.Pair{{A: int32(t.Seq), B: int32(t.Shard)}}, nil
	})
}

// eachTask adapts a per-task probe function to the Executor contract: the
// run is probed in order and the first failure returns the delivered
// prefix with the error.
func eachTask(tasks []Task, probe func(Task) ([]record.Pair, error)) ([][]record.Pair, error) {
	var out [][]record.Pair
	for _, t := range tasks {
		pairs, err := probe(t)
		if err != nil {
			return out, err
		}
		out = append(out, pairs)
	}
	return out, nil
}

// TestCoordinatorInOrderEmission pins the reorder guarantee: at several
// worker counts, emission is exactly slice order however completion lands.
func TestCoordinatorInOrderEmission(t *testing.T) {
	tasks := make([]Task, 40)
	for i := range tasks {
		tasks[i] = Task{Job: "j", Seq: int64(i), Shard: i % 4, Shards: 4}
	}
	for _, workers := range []int{1, 3, 8} {
		var stats Stats
		c := &Coordinator{Workers: workers, Stats: &stats}
		var got []int
		err := c.Run(tasks, &scrambleExecutor{}, func(i int, pairs []record.Pair) {
			got = append(got, i)
			if len(pairs) != 1 || pairs[0].A != int32(tasks[i].Seq) {
				t.Errorf("workers=%d: task %d delivered wrong payload %v", workers, i, pairs)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(tasks) {
			t.Fatalf("workers=%d: emitted %d of %d tasks", workers, len(got), len(tasks))
		}
		for i, v := range got {
			if i != v {
				t.Fatalf("workers=%d: emission %d was task %d — out of order", workers, i, v)
			}
		}
		if d := stats.Dispatched.Load(); d != int64(len(tasks)) {
			t.Errorf("workers=%d: dispatched %d, want %d", workers, d, len(tasks))
		}
		if r := stats.Retried.Load(); r != 0 {
			t.Errorf("workers=%d: retried %d, want 0", workers, r)
		}
	}
}

// flakyExecutor fails each task's first failN attempts with a retryable
// (status 503) error, then succeeds. failHard tasks fail with 400 — a
// terminal error the coordinator must not retry.
type flakyExecutor struct {
	failN    int
	failHard map[int64]bool
	mu       sync.Mutex
	tries    map[int64]int
}

func (e *flakyExecutor) Probe(tasks []Task, attempt int) ([][]record.Pair, error) {
	return eachTask(tasks, func(t Task) ([]record.Pair, error) {
		e.mu.Lock()
		if e.tries == nil {
			e.tries = make(map[int64]int)
		}
		e.tries[t.Seq]++
		tries := e.tries[t.Seq]
		e.mu.Unlock()
		if e.failHard[t.Seq] {
			return nil, &httpStatusError{status: 400, msg: "bad task"}
		}
		if tries <= e.failN {
			return nil, &httpStatusError{status: 503, msg: "worker restarting"}
		}
		return []record.Pair{{A: int32(t.Seq)}}, nil
	})
}

// TestCoordinatorRetriesTransient pins the retry loop: 5xx failures are
// re-attempted and the run converges with full, in-order output.
func TestCoordinatorRetriesTransient(t *testing.T) {
	tasks := make([]Task, 12)
	for i := range tasks {
		tasks[i] = Task{Seq: int64(i)}
	}
	var stats Stats
	c := &Coordinator{Workers: 4, MaxAttempts: 3, Stats: &stats}
	var got int
	err := c.Run(tasks, &flakyExecutor{failN: 2}, func(i int, _ []record.Pair) {
		if i != got {
			t.Fatalf("emission %d out of order", i)
		}
		got++
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(tasks) {
		t.Fatalf("emitted %d of %d", got, len(tasks))
	}
	if r := stats.Retried.Load(); r != int64(2*len(tasks)) {
		t.Errorf("retried %d, want %d", r, 2*len(tasks))
	}
	if d := stats.Dispatched.Load(); d != int64(len(tasks)) {
		t.Errorf("dispatched %d, want %d — retries must not inflate dispatch counts", d, len(tasks))
	}
}

// TestCoordinatorTerminalError pins fail-fast semantics: a 4xx aborts the
// run after one attempt, the error surfaces, and emission never passes the
// failed task's position.
func TestCoordinatorTerminalError(t *testing.T) {
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{Seq: int64(i)}
	}
	ex := &flakyExecutor{failHard: map[int64]bool{5: true}}
	c := &Coordinator{Workers: 2}
	var emitted []int
	err := c.Run(tasks, ex, func(i int, _ []record.Pair) { emitted = append(emitted, i) })
	if err == nil {
		t.Fatal("expected an error")
	}
	var he *httpStatusError
	if !errors.As(err, &he) || he.status != 400 {
		t.Fatalf("error %v does not carry the 400", err)
	}
	ex.mu.Lock()
	tries := ex.tries[5]
	ex.mu.Unlock()
	if tries != 1 {
		t.Errorf("terminal task attempted %d times, want 1", tries)
	}
	for _, i := range emitted {
		if i >= 5 {
			t.Errorf("task %d emitted past the failure point", i)
		}
	}
}

// TestCoordinatorRunExhaustsAttempts pins the bound: a task that never
// stops failing retryably consumes exactly MaxAttempts tries then fails
// the run.
func TestCoordinatorRunExhaustsAttempts(t *testing.T) {
	tasks := []Task{{Seq: 0}}
	ex := &flakyExecutor{failN: 1 << 30}
	c := &Coordinator{Workers: 1, MaxAttempts: 4}
	err := c.Run(tasks, ex, func(int, []record.Pair) { t.Fatal("nothing should emit") })
	if err == nil {
		t.Fatal("expected an error")
	}
	if ex.tries[0] != 4 {
		t.Errorf("attempted %d times, want 4", ex.tries[0])
	}
}

// gatedExecutor marks each task started, then blocks it until its release
// channel is closed — the instrument for observing exactly how far ahead
// of the emission frontier the coordinator will claim.
type gatedExecutor struct {
	mu      sync.Mutex
	started map[int64]chan struct{} // closed when the task may complete
	starts  chan int64
}

func newGatedExecutor(n int) *gatedExecutor {
	g := &gatedExecutor{started: make(map[int64]chan struct{}), starts: make(chan int64, n)}
	return g
}

func (g *gatedExecutor) gate(seq int64) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.started[seq]
	if !ok {
		ch = make(chan struct{})
		g.started[seq] = ch
	}
	return ch
}

func (g *gatedExecutor) Probe(tasks []Task, _ int) ([][]record.Pair, error) {
	return eachTask(tasks, func(t Task) ([]record.Pair, error) {
		ch := g.gate(t.Seq)
		g.starts <- t.Seq
		<-ch
		return []record.Pair{{A: int32(t.Seq)}}, nil
	})
}

// drainStarts collects task starts until none arrive for a settle period.
func drainStarts(g *gatedExecutor) []int64 {
	var got []int64
	for {
		select {
		case s := <-g.starts:
			got = append(got, s)
		case <-time.After(150 * time.Millisecond):
			return got
		}
	}
}

// TestCoordinatorBackpressure pins the reorder window's claim bound: with
// every in-flight task blocked, claims stop at exactly Window tasks ahead
// of the emission frontier, and releasing the frontier task admits exactly
// one more claim.
func TestCoordinatorBackpressure(t *testing.T) {
	const n, window = 20, 4
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Seq: int64(i)}
	}
	g := newGatedExecutor(n)
	c := &Coordinator{Workers: 8, Window: window}
	done := make(chan error, 1)
	emitted := make(chan int, n)
	go func() {
		done <- c.Run(tasks, g, func(i int, _ []record.Pair) { emitted <- i })
	}()

	started := drainStarts(g)
	if len(started) != window {
		t.Fatalf("%d tasks in flight with the frontier parked, want exactly Window=%d", len(started), window)
	}
	// Release the frontier task: emission advances by one, so exactly one
	// more claim must unblock.
	close(g.gate(0))
	if i := <-emitted; i != 0 {
		t.Fatalf("first emission was task %d, want 0", i)
	}
	more := drainStarts(g)
	if len(more) != 1 {
		t.Fatalf("frontier advanced by 1 but %d new tasks were claimed, want 1", len(more))
	}
	// Drain the rest.
	for seq := int64(1); seq < n; seq++ {
		close(g.gate(seq))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// batchRecorder is a scripted Executor: it serves first-attempt runs
// whole, except that one containing tornAt delivers only the prefix before
// it and reports a retryable failure. Re-attempts (the torn tail, re-run as
// groups of one) always succeed.
type batchRecorder struct {
	tornAt int64 // Seq of the first undelivered task; -1 = never tear

	mu           sync.Mutex
	batches      [][]int64
	singles      []int64
	singleAtmpts []int
}

func (b *batchRecorder) Probe(tasks []Task, attempt int) ([][]record.Pair, error) {
	if attempt > 0 {
		return eachTask(tasks, func(t Task) ([]record.Pair, error) {
			b.mu.Lock()
			b.singles = append(b.singles, t.Seq)
			b.singleAtmpts = append(b.singleAtmpts, attempt)
			b.mu.Unlock()
			return []record.Pair{{A: int32(t.Seq)}}, nil
		})
	}
	seqs := make([]int64, len(tasks))
	for i, t := range tasks {
		seqs[i] = t.Seq
	}
	b.mu.Lock()
	b.batches = append(b.batches, seqs)
	b.mu.Unlock()
	var out [][]record.Pair
	for _, t := range tasks {
		if t.Seq == b.tornAt {
			return out, &httpStatusError{status: 503, msg: "killed mid-stream"}
		}
		out = append(out, []record.Pair{{A: int32(t.Seq)}})
	}
	return out, nil
}

// TestCoordinatorBatchClaiming pins the batched path: runs are claimed and
// split into same-shard batches, emission order is unchanged, every task
// is dispatched exactly once, and nothing is re-attempted.
func TestCoordinatorBatchClaiming(t *testing.T) {
	tasks := BlockTasks("j", 64*6, 2) // 6 blocks × 2 shards = 12 tasks
	var stats Stats
	b := &batchRecorder{tornAt: -1}
	c := &Coordinator{Workers: 1, Batch: 6, Stats: &stats}
	var got []int
	if err := c.Run(tasks, b, func(i int, _ []record.Pair) { got = append(got, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if i != v {
			t.Fatalf("emission %d was task %d — batching broke ordering", i, v)
		}
	}
	if len(b.singles) != 0 {
		t.Errorf("%d re-attempts on a clean batched run, want 0", len(b.singles))
	}
	if d := stats.Dispatched.Load(); d != int64(len(tasks)) {
		t.Errorf("dispatched %d, want %d", d, len(tasks))
	}
	if r := stats.Retried.Load(); r != 0 {
		t.Errorf("retried %d, want 0", r)
	}
	for _, batch := range b.batches {
		shard := batch[0] % 2
		for _, seq := range batch {
			if seq%2 != shard {
				t.Fatalf("batch %v mixes shards — same-endpoint routing broken", batch)
			}
		}
	}
}

// TestCoordinatorTornBatch pins torn-batch accounting: the delivered
// prefix is kept (never re-dispatched), each undelivered task is re-run
// exactly once as a group of one at attempt 1, and the output stream is
// unchanged.
func TestCoordinatorTornBatch(t *testing.T) {
	tasks := BlockTasks("j", 64*8, 2) // 16 tasks
	const torn = 6                    // tear shard-0's batch at Seq 6 (4th shard-0 task)
	var stats Stats
	b := &batchRecorder{tornAt: torn}
	c := &Coordinator{Workers: 1, Batch: 16, Stats: &stats}
	var got []int
	if err := c.Run(tasks, b, func(i int, _ []record.Pair) { got = append(got, i) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("emitted %d of %d", len(got), len(tasks))
	}
	for i, v := range got {
		if i != v {
			t.Fatalf("emission %d was task %d", i, v)
		}
	}
	// The torn shard-0 batch delivered Seqs 0,2,4 then died; 6,8,10,12,14
	// must re-run singly at attempt 1 — failover's attempt number — and
	// count as retries.
	wantSingles := []int64{6, 8, 10, 12, 14}
	if fmt.Sprint(b.singles) != fmt.Sprint(wantSingles) {
		t.Errorf("single re-runs %v, want %v", b.singles, wantSingles)
	}
	for i, a := range b.singleAtmpts {
		if a != 1 {
			t.Errorf("re-run %d used attempt %d, want 1 (the batch was attempt 0)", i, a)
		}
	}
	if d := stats.Dispatched.Load(); d != int64(len(tasks)) {
		t.Errorf("dispatched %d, want %d — a torn batch must not re-pay delivered work", d, len(tasks))
	}
	if r := stats.Retried.Load(); r != int64(len(wantSingles)) {
		t.Errorf("retried %d, want %d", r, len(wantSingles))
	}
}

func TestBlockTasksLayout(t *testing.T) {
	tasks := BlockTasks("j", 150, 3)
	blocks := (150 + TaskBlockRows - 1) / TaskBlockRows
	if len(tasks) != blocks*3 {
		t.Fatalf("%d tasks, want %d", len(tasks), blocks*3)
	}
	for i, tk := range tasks {
		if tk.Seq != int64(i) {
			t.Fatalf("task %d has Seq %d", i, tk.Seq)
		}
		if tk.Shard != i%3 {
			t.Fatalf("task %d has shard %d, want %d (shard-minor layout)", i, tk.Shard, i%3)
		}
		if tk.Job != "j" || tk.Shards != 3 {
			t.Fatalf("task %d fields wrong: %+v", i, tk)
		}
	}
	last := tasks[len(tasks)-1]
	if last.AHi != 150 {
		t.Fatalf("last task ends at %d, want 150", last.AHi)
	}
	if got := fmt.Sprint(BlockTasks("j", 0, 3)); got != "[]" {
		t.Fatalf("empty table should yield no tasks, got %s", got)
	}
}

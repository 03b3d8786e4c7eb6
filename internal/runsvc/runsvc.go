package runsvc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/shard"
)

// Admission-control sentinels. Submit/Resume reject with errors matching
// these (via errors.Is) when the service is overloaded or shutting down;
// the HTTP layer maps them to 429/503 with Retry-After so callers back
// off instead of failing opaquely.
var (
	// ErrQueueFull: the job queue is at capacity. Transient — retry after
	// backoff.
	ErrQueueFull = errors.New("runsvc: queue full")
	// ErrDraining: the manager is draining (graceful shutdown) or closed
	// and accepts no new work.
	ErrDraining = errors.New("runsvc: draining, not accepting jobs")
	// ErrDiskBudget: the journal store has reached Options.MaxJournalBytes;
	// new submissions are shed until compaction or cleanup frees space.
	ErrDiskBudget = errors.New("runsvc: journal disk budget exhausted")
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: accepted, waiting for an executor slot.
	StateQueued State = "queued"
	// StateRunning: an executor is driving engine.Run.
	StateRunning State = "running"
	// StateDone: the pipeline completed.
	StateDone State = "done"
	// StateCanceled: the job was canceled; partial results are kept and
	// every paid label is journaled, so the job can be resumed.
	StateCanceled State = "canceled"
	// StateFailed: the pipeline or its journal returned an error.
	StateFailed State = "failed"
	// StateCrashed: the executor panicked mid-run (or the process was
	// killed — in a fresh process such jobs simply have no terminal
	// status). Resumable from the journal.
	StateCrashed State = "crashed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCanceled, StateFailed, StateCrashed:
		return true
	}
	return false
}

// queueDepth bounds jobs accepted but not yet running; a submit past it is
// shed with ErrQueueFull.
const queueDepth = 1024

// Options configures a Manager.
type Options struct {
	// Workers bounds concurrent engine.Run executions (default 4).
	Workers int
	// JournalDir, when non-empty, enables durable journaling under this
	// directory. Empty means in-memory only: jobs run but cannot be
	// resumed across processes.
	JournalDir string
	// SnapshotEvery is read by nothing: a journal compacts once its log
	// outgrows its newest snapshot. It stays because the benchmark's
	// service workload sets it (ROADMAP item 17).
	SnapshotEvery int
	// MaxJournalBytes, when positive, sheds new submissions (ErrDiskBudget)
	// once the journal store's on-disk size reaches this budget. Resumes
	// are exempt: finishing a paid-for job frees space, rejecting it
	// strands the spend. 0 means unlimited.
	MaxJournalBytes int64
}

// Manager runs Corleone jobs on a bounded executor pool, journaling each
// one so a crashed or killed process can resume without re-paying the
// crowd. Safe for concurrent use.
type Manager struct {
	store *Store

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool

	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	// draining flips once Drain begins, before any job is canceled, so
	// /healthz reports 503 and new submissions shed while in-flight jobs
	// wind down. maxJournalBytes is Options.MaxJournalBytes; submitsShed
	// counts admission rejections (queue, disk, drain) for /metrics.
	draining        atomic.Bool
	maxJournalBytes int64
	submitsShed     atomic.Int64

	// shardStats accumulates shard task dispatches across all jobs for
	// /metrics.
	shardStats shard.Stats
}

// NewManager starts a manager and its executor pool.
func NewManager(opts Options) (*Manager, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	m := &Manager{
		jobs:            make(map[string]*Job),
		queue:           make(chan *Job, queueDepth),
		quit:            make(chan struct{}),
		maxJournalBytes: opts.MaxJournalBytes,
	}
	if opts.JournalDir != "" {
		store, err := NewStore(opts.JournalDir)
		if err != nil {
			return nil, err
		}
		m.store = store
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.execute(j)
		}
	}
}

// Close stops accepting jobs and waits for running executors to finish
// their current job. Queued jobs never start; when a store is configured
// their spec records were already journaled at submission, so a fresh
// manager can resume Meta-carrying jobs by id (library jobs without a Meta
// need ResumeSpec).
func (m *Manager) Close() {
	m.mu.Lock()
	wasClosed := m.closed
	m.closed = true
	m.mu.Unlock()
	if wasClosed {
		return
	}
	close(m.quit)
	m.wg.Wait()
}

// Drain is the graceful-shutdown path: it marks the manager draining (new
// submissions shed with ErrDraining, /healthz flips to 503 so load
// balancers stop routing here), requests cancellation of every
// non-terminal job, then stops the executor pool and waits for in-flight
// jobs to finish. A canceled running job stops at its next crowd batch
// with every paid label flushed to its journal; a job still queued never
// starts, but its spec was journaled at submission, so a fresh process
// resumes it by id. Safe to call more than once.
func (m *Manager) Drain() {
	m.draining.Store(true)
	for _, j := range m.Jobs() {
		if !j.State().Terminal() {
			j.Cancel()
		}
	}
	m.Close()
}

// Draining reports whether Drain has begun (or the manager is closed):
// the service should be taken out of rotation and submissions are shed.
func (m *Manager) Draining() bool {
	if m.draining.Load() {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Metrics is the point-in-time operational summary served at /metrics.
type Metrics struct {
	// Job counts by lifecycle state. Done/Canceled/Failed fold crashed
	// into failed.
	JobsQueued   int `json:"jobs_queued"`
	JobsRunning  int `json:"jobs_running"`
	JobsDone     int `json:"jobs_done"`
	JobsCanceled int `json:"jobs_canceled"`
	JobsFailed   int `json:"jobs_failed"`
	// Index probe blocks (one per 64 rows of table A), accumulated across
	// every job whose blocking took an index plan.
	ShardTasksDispatched int64 `json:"shard_tasks_dispatched"`
	// BytesJournaled counts bytes appended across all journal files (0
	// when journaling is disabled).
	BytesJournaled int64 `json:"bytes_journaled"`
	// Snapshot/compaction counters: generations written, their total
	// size, invalid generations Replay skipped past, and journal bytes
	// Replay consumed (snapshots + log suffixes).
	SnapshotsWritten  int64 `json:"snapshots_written"`
	SnapshotBytes     int64 `json:"snapshot_bytes"`
	SnapshotFallbacks int64 `json:"snapshot_fallbacks"`
	BytesReplayed     int64 `json:"bytes_replayed"`
	// Admission control: submissions shed (queue full, disk budget,
	// draining) and whether the manager is draining.
	SubmitsShed int64 `json:"submits_shed"`
	Draining    bool  `json:"draining"`
}

// Metrics snapshots the manager's counters.
func (m *Manager) Metrics() Metrics {
	var out Metrics
	m.mu.Lock()
	for _, j := range m.jobs {
		switch j.State() {
		case StateQueued:
			out.JobsQueued++
		case StateRunning:
			out.JobsRunning++
		case StateDone:
			out.JobsDone++
		case StateCanceled:
			out.JobsCanceled++
		case StateFailed, StateCrashed:
			out.JobsFailed++
		}
	}
	m.mu.Unlock()
	out.ShardTasksDispatched = m.shardStats.Dispatched.Load()
	if m.store != nil {
		out.BytesJournaled = m.store.BytesWritten()
		out.SnapshotsWritten = m.store.SnapshotsWritten()
		out.SnapshotBytes = m.store.SnapshotBytes()
		out.SnapshotFallbacks = m.store.SnapshotFallbacks()
		out.BytesReplayed = m.store.BytesRead()
	}
	out.SubmitsShed = m.submitsShed.Load()
	out.Draining = m.Draining()
	return out
}

// Submit accepts a job for execution and returns it in StateQueued.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return m.enqueue(spec, "", false)
}

// Resume re-runs a journaled job in a fresh (or the same) process,
// reconstructing dataset and crowd from the stored spec. Journaled answers
// are served instead of asked again. Only jobs submitted with a Meta can be
// resumed this way; library jobs use ResumeSpec.
func (m *Manager) Resume(id string) (*Job, error) {
	if m.store == nil {
		return nil, fmt.Errorf("runsvc: resume %s: no journal store configured", id)
	}
	if !m.store.Exists(id) {
		return nil, fmt.Errorf("runsvc: resume %s: no journal", id)
	}
	jl, err := m.store.Open(id)
	if err != nil {
		return nil, err
	}
	rec, err := jl.ReadSpec()
	//corlint:allow dur-ignored-write — spec read-back only; nothing was written through this handle
	jl.Close()
	if err != nil {
		return nil, err
	}
	if rec.Meta == nil {
		return nil, fmt.Errorf("runsvc: resume %s: job has no serializable spec; use ResumeSpec", id)
	}
	spec, err := BuildSpec(*rec.Meta)
	if err != nil {
		return nil, err
	}
	if rec.Name != "" {
		spec.Name = rec.Name
	}
	return m.resumeSpec(id, spec)
}

// ResumeSpec resumes a journaled job with a caller-supplied spec (dataset,
// crowd, and config must match the original submission for the replay to
// be exact — only the paid answers come from the journal).
func (m *Manager) ResumeSpec(id string, spec Spec) (*Job, error) {
	if m.store == nil {
		return nil, fmt.Errorf("runsvc: resume %s: no journal store configured", id)
	}
	if !m.store.Exists(id) {
		return nil, fmt.Errorf("runsvc: resume %s: no journal", id)
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return m.resumeSpec(id, spec)
}

func (m *Manager) resumeSpec(id string, spec Spec) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	busy := ok && !j.State().Terminal()
	m.mu.Unlock()
	if busy {
		return nil, fmt.Errorf("runsvc: job %s is %s; cancel or wait before resuming", id, j.State())
	}
	return m.enqueue(spec, id, true)
}

// enqueue registers the job and hands it to the pool. id is empty for new
// submissions (one is allocated) and fixed for resumes. When a store is
// configured, a new submission's spec record is journaled here, before the
// job ever runs, so a job still queued at shutdown is resumable by a fresh
// process. Admission control happens here: a draining/closed manager, an
// exhausted journal disk budget (new submissions only), and a full queue
// each reject with their typed sentinel.
func (m *Manager) enqueue(spec Spec, id string, resume bool) (*Job, error) {
	if m.draining.Load() {
		m.submitsShed.Add(1)
		return nil, ErrDraining
	}
	if !resume && m.store != nil && m.maxJournalBytes > 0 {
		usage, err := m.store.DiskUsage()
		if err != nil {
			return nil, fmt.Errorf("runsvc: disk budget check: %w", err)
		}
		if usage >= m.maxJournalBytes {
			m.submitsShed.Add(1)
			return nil, fmt.Errorf("%w: %d of %d bytes used", ErrDiskBudget, usage, m.maxJournalBytes)
		}
	}
	j, prev, existed := m.register(spec, id, resume)
	if j == nil {
		m.submitsShed.Add(1)
		return nil, fmt.Errorf("manager closed: %w", ErrDraining)
	}
	id = j.ID

	// rollback undoes the registration: a resume attempt that fails must
	// leave the prior (terminal) job's record visible, not erase it.
	rollback := func() {
		m.mu.Lock()
		if existed {
			m.jobs[id] = prev
		} else {
			delete(m.jobs, id)
			for i, oid := range m.order {
				if oid == id {
					m.order = append(m.order[:i], m.order[i+1:]...)
					break
				}
			}
		}
		m.mu.Unlock()
	}

	if m.store != nil && !resume {
		// Journal the spec now: queued jobs must survive a shutdown. The id
		// allocation above guarantees the directory is fresh, so rollback
		// may remove it wholesale.
		jl, err := m.store.Open(id)
		if err == nil {
			err = jl.WriteSpec(spec.Name, spec.Meta)
			if cerr := jl.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			rollback()
			return nil, fmt.Errorf("runsvc: journal spec for %s: %w", id, err)
		}
	}

	j.publishState(StateQueued, "")
	select {
	case m.queue <- j:
		return j, nil
	default:
		rollback()
		if m.store != nil && !resume {
			_ = m.store.Remove(id)
		}
		m.submitsShed.Add(1)
		return nil, ErrQueueFull
	}
}

// register records a new queued job under id, allocating an id when it is
// empty, and returns the job it replaced. It returns a nil job when the
// manager is closed.
func (m *Manager) register(spec Spec, id string, resume bool) (j, prev *Job, existed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, nil, false
	}
	if id == "" {
		for {
			m.nextID++
			id = fmt.Sprintf("%s-%04d", spec.Name, m.nextID)
			_, taken := m.jobs[id]
			if !taken && (m.store == nil || !m.store.Exists(id)) {
				break
			}
		}
	}
	j = &Job{
		ID:     id,
		spec:   spec,
		resume: resume,
		state:  StateQueued,
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
		events: newBroker(),
	}
	prev, existed = m.jobs[id]
	if !existed {
		m.order = append(m.order, id)
	}
	m.jobs[id] = j
	return j, prev, existed
}

// Job returns a job by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job by id.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("runsvc: unknown job %s", id)
	}
	j.Cancel()
	return nil
}

// Store exposes the journal store (nil when journaling is disabled).
func (m *Manager) Store() *Store { return m.store }

// execute drives one job through engine.Run with journaling and event
// hooks installed. Runs on an executor goroutine.
func (m *Manager) execute(j *Job) {
	// A queued job canceled before starting never runs.
	select {
	case <-j.cancel:
		j.finish(StateCanceled, nil, nil, nil)
		return
	default:
	}
	j.setRunning()

	var jl *Journal
	runner := crowd.NewRunner(j.spec.Crowd, price(j.spec.Config))
	runner.Retry = j.spec.Retry
	defer func() {
		if p := recover(); p != nil {
			// A hard stop mid-run: journal files may hold a partial tail,
			// but every flushed batch boundary is intact — exactly the
			// state a killed process leaves behind.
			if jl != nil {
				//corlint:allow dur-ignored-write — crash cleanup; the job is already terminal and every batch boundary was synced
				jl.Close()
			}
			j.finish(StateCrashed, nil, fmt.Errorf("runsvc: job crashed: %v", p), jl)
		}
	}()

	if m.store != nil {
		var err error
		jl, err = m.store.Open(j.ID)
		if err == nil {
			err = jl.WriteSpec(j.spec.Name, j.spec.Meta)
		}
		if err != nil {
			j.finish(StateFailed, nil, err, nil)
			return
		}
		if j.resume {
			replayed, err := jl.Replay(runner)
			if err != nil {
				//corlint:allow dur-ignored-write — replay failure cleanup; the replay error propagates and nothing was written
				jl.Close()
				j.finish(StateFailed, nil, err, nil)
				return
			}
			// The restored answers are charged as the run re-asks them, so
			// the event's cost still reads 0; its detail carries them.
			answers, pairs := runner.Restored()
			j.publishProgress("resume", fmt.Sprintf(
				"replayed %d journaled labels: %d paid answers over %d pairs, charged as they are re-asked",
				replayed.Labels, answers, pairs), runner)
		}
		runner.AfterBatch = func() {
			if err := jl.FlushLabels(runner); err != nil {
				j.journalFail(err)
			}
		}
	}

	cfg := j.spec.Config
	cfg.Runner = runner
	cfg.Cancel = j.cancel
	// Every job's sharded blocking feeds the manager-wide shard counters.
	cfg.Blocker.ShardStats = &m.shardStats
	userListener := cfg.Listener
	cfg.Listener = func(e engine.Event) {
		j.publishEngineEvent(e)
		if userListener != nil {
			userListener(e)
		}
	}
	cfg.Checkpoint = func(cp engine.Checkpoint) {
		if jl != nil {
			info, err := jl.Checkpoint(runner, cp)
			if err != nil {
				j.journalFail(err)
			}
			// Compaction is observable: each new snapshot generation
			// publishes a "compact" progress event with its shape.
			if info.Gen > 0 {
				j.publishProgress("compact", fmt.Sprintf(
					"snapshot g%06d: %d labels, %d bytes",
					info.Gen, info.Labels, info.Bytes), runner)
			}
		}
		j.publishCheckpoint(cp)
	}

	res, err := engine.Run(j.spec.Dataset, j.spec.Crowd, cfg)
	if jl != nil {
		// Final flush: a graceful end (including cancellation) journals
		// every paid label even if the last batch boundary was missed.
		if ferr := jl.FlushLabels(runner); ferr != nil {
			j.journalFail(ferr)
		}
	}

	state := StateDone
	switch {
	case err != nil:
		state = StateFailed
	case j.journalErr() != nil:
		state, err = StateFailed, j.journalErr()
	case res != nil && res.StopReason == "canceled":
		state = StateCanceled
	}
	if jl != nil {
		if cerr := jl.Close(); cerr != nil && err == nil {
			state, err = StateFailed, cerr
		}
	}
	j.finish(state, res, err, jl)
}

func price(cfg engine.Config) float64 {
	if cfg.PricePerQuestion > 0 {
		return cfg.PricePerQuestion
	}
	return engine.Defaults().PricePerQuestion
}

// Job is one managed Corleone run.
type Job struct {
	ID string

	spec   Spec
	resume bool

	mu        sync.Mutex
	state     State
	result    *engine.Result
	err       error
	jerr      error
	lastCost  float64
	lastPairs int
	phase     string

	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{}
	events     *broker
}

// Spec returns the job's specification.
func (j *Job) Spec() Spec { return j.spec }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cancellation. Safe to call at any time, from any
// goroutine, repeatedly. A queued job is dropped; a running job stops at
// the next crowd batch with its labels journaled.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its result and error.
func (j *Job) Wait() (*engine.Result, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Result returns the engine result (nil until done).
func (j *Job) Result() *engine.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Subscribe returns the job's event stream — full history then live — and
// a cancel function. The channel closes when the job ends.
func (j *Job) Subscribe() (<-chan Event, func()) {
	return j.events.subscribe()
}

// Events snapshots the events published so far.
func (j *Job) Events() []Event { return j.events.snapshot() }

// Status is a point-in-time job summary.
type Status struct {
	ID         string  `json:"id"`
	Name       string  `json:"name"`
	State      State   `json:"state"`
	Phase      string  `json:"phase,omitempty"`
	Cost       float64 `json:"cost"`
	Pairs      int     `json:"pairs"`
	Resumed    bool    `json:"resumed,omitempty"`
	Error      string  `json:"error,omitempty"`
	StopReason string  `json:"stop_reason,omitempty"`
	Matches    int     `json:"matches,omitempty"`
	EstF1      float64 `json:"estimated_f1,omitempty"`
}

// Status returns the job summary.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:      j.ID,
		Name:    j.spec.Name,
		State:   j.state,
		Phase:   j.phase,
		Cost:    j.lastCost,
		Pairs:   j.lastPairs,
		Resumed: j.resume,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		st.StopReason = j.result.StopReason
		st.Matches = len(j.result.Matches)
		st.EstF1 = j.result.EstimatedF1
		st.Cost = j.result.Accounting.Cost
		st.Pairs = j.result.Accounting.Pairs
	}
	return st
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	j.publishState(StateRunning, "")
}

func (j *Job) journalFail(err error) {
	j.mu.Lock()
	if j.jerr == nil {
		j.jerr = err
	}
	j.mu.Unlock()
	// Stop the run promptly: labels already flushed are durable, and the
	// job will finish as failed with the journal error attached.
	j.Cancel()
}

func (j *Job) journalErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jerr
}

// finish moves the job to a terminal state, writes the status record, and
// closes the stream. jl may be nil (no store, or open failed); it is
// already closed by the caller.
func (j *Job) finish(state State, res *engine.Result, err error, jl *Journal) {
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = err
	j.mu.Unlock()

	detail := ""
	if err != nil {
		detail = err.Error()
	}
	j.publishState(state, detail)
	if jl != nil {
		rec := StatusRecord{State: state}
		if err != nil {
			rec.Error = err.Error()
		}
		if res != nil {
			rec.StopReason = res.StopReason
			rec.Matches = len(res.Matches)
			rec.EstimatedF1 = res.EstimatedF1
			if res.HasTrue {
				rec.TrueF1 = res.True.F1
			}
			rec.Answers = res.Accounting.Answers
			rec.Pairs = res.Accounting.Pairs
			rec.Cost = res.Accounting.Cost
			rec.Iterations = res.Iterations
		}
		_ = jl.WriteStatus(rec)
	}
	j.events.close()
	close(j.done)
}

func (j *Job) publishState(state State, detail string) {
	j.mu.Lock()
	cost, pairs := j.lastCost, j.lastPairs
	j.mu.Unlock()
	j.events.publish(Event{
		Job: j.ID, Kind: "state", State: state, Detail: detail,
		Cost: cost, Pairs: pairs,
	})
}

func (j *Job) publishEngineEvent(e engine.Event) {
	j.mu.Lock()
	j.lastCost, j.lastPairs, j.phase = e.Cost, e.Pairs, e.Phase
	j.mu.Unlock()
	j.events.publish(Event{
		Job: j.ID, Kind: "progress", Phase: e.Phase, Detail: e.Detail,
		Cost: e.Cost, Pairs: e.Pairs,
	})
}

func (j *Job) publishProgress(phase, detail string, r *crowd.Runner) {
	st := r.Stats()
	j.events.publish(Event{
		Job: j.ID, Kind: "progress", Phase: phase, Detail: detail,
		Cost: st.Cost, Pairs: st.Pairs,
	})
}

func (j *Job) publishCheckpoint(cp engine.Checkpoint) {
	j.mu.Lock()
	j.lastCost, j.lastPairs = cp.Accounting.Cost, cp.Accounting.Pairs
	j.mu.Unlock()
	j.events.publish(Event{
		Job: j.ID, Kind: "checkpoint", Phase: cp.Phase, Iteration: cp.Iteration,
		Cost: cp.Accounting.Cost, Pairs: cp.Accounting.Pairs,
	})
}

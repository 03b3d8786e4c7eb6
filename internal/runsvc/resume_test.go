package runsvc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
)

// samePairs reports whether two pair sets are equal regardless of order.
func samePairs(a, b []record.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]record.Pair(nil), a...)
	bs := append([]record.Pair(nil), b...)
	record.SortPairs(as)
	record.SortPairs(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// countingCrowd wraps a crowd and counts answers solicited per pair, so
// the resume test can prove settled pairs are never re-asked.
type countingCrowd struct {
	inner crowd.Crowd

	mu     sync.Mutex
	counts map[record.Pair]int
	total  int
}

func (c *countingCrowd) Answer(p record.Pair) bool {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = make(map[record.Pair]int)
	}
	c.counts[p]++
	c.total++
	c.mu.Unlock()
	return c.inner.Answer(p)
}

// crashAfterBatches is the seam schedule for "the process dies right
// after its nth training batch is durable": it counts log appends that
// open with a batch frame and kills at the fsync following the nth.
func crashAfterBatches(n int) FaultFunc {
	seen := 0
	return func(op Op) Fault {
		if op.Kind == OpAppend && strings.HasPrefix(op.File, logPrefix) &&
			len(op.Data) > frameHeader && op.Data[frameHeader-1] == kindBatch {
			seen++
		}
		return Fault{Crash: op.Kind == OpSync && seen >= n}
	}
}

// TestKillAndResume is the crash-recovery acceptance test: a job is
// hard-stopped mid-matching (simulated process kill right after a batch
// flush), then resumed from the journal by a fresh manager. The resumed
// run must pay nothing for already-settled pairs, spend in total exactly
// what an uninterrupted run spends, and land on the identical result.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume integration test in -short mode")
	}
	dir := t.TempDir()
	meta := testMeta(7, 0.2, 0) // oracle crowd: answers are deterministic
	const crashAfter = 3

	// Baseline: an uninterrupted run, instrumented to count training
	// batches so we know the injected crash lands mid-matching.
	baseSpec, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	baseRunner := crowd.NewRunner(baseSpec.Crowd, baseSpec.Config.PricePerQuestion)
	baseBatches := 0
	baseRunner.OnBatch = func([]crowd.Labeled) { baseBatches++ }
	baseCfg := baseSpec.Config
	baseCfg.Runner = baseRunner
	base, err := engine.Run(baseSpec.Dataset, baseSpec.Crowd, baseCfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseBatches <= crashAfter {
		t.Fatalf("baseline posted %d training batches; crash after %d would not land mid-matching",
			baseBatches, crashAfter)
	}

	// Phase 1: run with crash injection — the fault seam panics (simulating
	// a kill) right after the 3rd training batch is flushed.
	m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m1.Store().Faults = crashAfterBatches(crashAfter)
	j1, err := m1.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res1, err := j1.Wait()
	m1.Close()
	if j1.State() != StateCrashed {
		t.Fatalf("crashed job state = %s (err %v), want crashed", j1.State(), err)
	}
	if res1 != nil {
		t.Fatalf("crashed job returned a result: %+v", res1)
	}

	// Inspect the journal the "kill" left behind.
	store, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if !store.Exists(j1.ID) {
		t.Fatalf("no journal for %s; store has %v", j1.ID, store.List())
	}
	jl, err := store.Open(j1.ID)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if st, ok := jl.ReadStatus(); !ok || st.State != StateCrashed {
		t.Fatalf("journal status = %+v, %v; want crashed", st, ok)
	}
	// Replay it into a scratch runner: the paid answers it holds, and the
	// settled set at crash time — pairs whose journaled votes satisfy the
	// hybrid stopping rule (strong positives, 2+1 negatives). These must
	// cost zero on resume.
	scratch := crowd.NewRunner(nil, 0.01)
	replayed, err := jl.Replay(scratch)
	jl.Close()
	if err != nil {
		t.Fatalf("replay into scratch runner: %v", err)
	}
	journalAnswers := scratch.Stats().Answers
	if journalAnswers == 0 {
		t.Fatal("crash journal holds no paid answers; crash fired too early")
	}
	if journalAnswers >= base.Accounting.Answers {
		t.Fatalf("crash journal holds %d answers, baseline total is %d; crash fired too late",
			journalAnswers, base.Accounting.Answers)
	}
	if replayed.Batches != crashAfter || replayed.Checkpoints == 0 {
		t.Fatalf("crash journal replayed %+v; want %d batches and some checkpoints", replayed, crashAfter)
	}
	settled := make(map[record.Pair]bool)
	for _, l := range scratch.AllLabeled() {
		if _, ok := scratch.Cached(l.Pair, crowd.PolicyHybrid); ok {
			settled[l.Pair] = true
		}
	}
	if len(settled) == 0 {
		t.Fatal("no settled pairs in crash journal")
	}

	// Phase 2: a fresh manager (fresh process, in effect) resumes the job.
	m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	spec2, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	counting := &countingCrowd{inner: spec2.Crowd}
	j2, err := m2.ResumeSpec(j1.ID, Spec{
		Name:    spec2.Name,
		Dataset: spec2.Dataset,
		Crowd:   counting,
		Config:  spec2.Config,
		Meta:    &meta,
	})
	if err != nil {
		t.Fatalf("ResumeSpec: %v", err)
	}
	if j2.ID != j1.ID {
		t.Fatalf("resumed job id %s, want %s", j2.ID, j1.ID)
	}
	res2, err := j2.Wait()
	if err != nil {
		t.Fatalf("resumed job: %v", err)
	}
	if j2.State() != StateDone {
		t.Fatalf("resumed job state = %s, want done", j2.State())
	}

	// Zero additional crowd cost for already-settled pairs.
	for p := range settled {
		if n := counting.counts[p]; n != 0 {
			t.Errorf("settled pair %v re-asked %d times on resume", p, n)
		}
	}

	// Total spend conservation: replay restores the crash-journaled
	// accounting, so the resumed run's cumulative spend equals the
	// uninterrupted run's exactly — nothing re-paid, nothing skipped, and
	// a budget cap would bite at the same cumulative dollar. The crowd
	// itself is only asked the difference.
	if res2.Accounting != base.Accounting {
		t.Errorf("resumed accounting %+v != uninterrupted %+v", res2.Accounting, base.Accounting)
	}
	if got := res2.Accounting.Answers - journalAnswers; counting.total != got {
		t.Errorf("crowd saw %d answers on resume, accounting delta says %d", counting.total, got)
	}

	// Identical final result.
	if res2.True.F1 != base.True.F1 {
		t.Errorf("resumed F1 = %.4f, baseline = %.4f", res2.True.F1, base.True.F1)
	}
	if res2.EstimatedF1 != base.EstimatedF1 {
		t.Errorf("resumed estimated F1 = %.4f, baseline = %.4f", res2.EstimatedF1, base.EstimatedF1)
	}
	if res2.StopReason != base.StopReason || res2.Iterations != base.Iterations {
		t.Errorf("resumed stop %q/%d iters, baseline %q/%d",
			res2.StopReason, res2.Iterations, base.StopReason, base.Iterations)
	}
	if !samePairs(res2.Matches, base.Matches) {
		t.Errorf("resumed matches (%d) differ from baseline (%d)",
			len(res2.Matches), len(base.Matches))
	}

	// The journal now records a clean finish; a second resume attempt of a
	// done job simply replays to the same answer at zero cost.
	jl2, err := store.Open(j1.ID)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	st, ok := jl2.ReadStatus()
	jl2.Close()
	if !ok || st.State != StateDone || st.Answers != res2.Accounting.Answers {
		t.Fatalf("final journal status = %+v, %v", st, ok)
	}
}

// TestResumeFromSpecJSON exercises Manager.Resume, which rebuilds the
// dataset and crowd from the journaled Meta alone — the fresh-process
// path where the caller has nothing but the journal directory.
func TestResumeFromSpecJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("resume test in -short mode")
	}
	dir := t.TempDir()
	meta := testMeta(9, 0.15, 0)
	base := serialRun(t, meta)

	m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m1.Store().Faults = crashAfterBatches(2)
	j1, _ := m1.Submit(Spec{Meta: &meta})
	j1.Wait()
	m1.Close()
	if j1.State() != StateCrashed {
		t.Fatalf("state = %s, want crashed", j1.State())
	}

	m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	j2, err := m2.Resume(j1.ID)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res, err := j2.Wait()
	if err != nil || j2.State() != StateDone {
		t.Fatalf("resumed job: state %s, err %v", j2.State(), err)
	}
	if res.True.F1 != base.True.F1 || res.StopReason != base.StopReason {
		t.Errorf("resumed F1 %.4f stop %q, baseline %.4f %q",
			res.True.F1, res.StopReason, base.True.F1, base.StopReason)
	}

	// A resume event announcing the replayed label count must be in the
	// stream before any engine progress.
	sawReplay := false
	for _, e := range j2.Events() {
		if e.Kind == "progress" && e.Phase == "resume" {
			sawReplay = true
			break
		}
	}
	if !sawReplay {
		t.Error("resumed job published no replay event")
	}
}

// TestBudgetEnforcedAcrossResume pins the real-money property behind label
// replay's accounting restore: a budget caps a job's cumulative spend, not
// per-process spend. A budgeted job killed mid-run and resumed must stop at
// the same cumulative dollar — and the same result — as the uninterrupted
// budgeted run, instead of granting itself a fresh budget on every resume.
func TestBudgetEnforcedAcrossResume(t *testing.T) {
	if testing.Short() {
		t.Skip("budget resume test in -short mode")
	}
	// Find the unbudgeted spend, then budget well below it so the budget —
	// not convergence — is what stops the run.
	free := testMeta(7, 0.2, 0)
	unbounded := serialRun(t, free)

	meta := free
	meta.Budget = unbounded.Accounting.Cost * 0.6
	const crashAfter = 2

	spec, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	runner := crowd.NewRunner(spec.Crowd, spec.Config.PricePerQuestion)
	batches := 0
	runner.OnBatch = func([]crowd.Labeled) { batches++ }
	cfg := spec.Config
	cfg.Runner = runner
	base, err := engine.Run(spec.Dataset, spec.Crowd, cfg)
	if err != nil {
		t.Fatalf("budgeted baseline: %v", err)
	}
	if base.StopReason != "budget exhausted" {
		t.Fatalf("budgeted baseline stopped for %q, want budget exhausted", base.StopReason)
	}
	if batches <= crashAfter {
		t.Fatalf("budgeted baseline posted %d batches; crash after %d would not land mid-run",
			batches, crashAfter)
	}

	dir := t.TempDir()
	m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m1.Store().Faults = crashAfterBatches(crashAfter)
	j1, err := m1.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j1.Wait()
	m1.Close()
	if j1.State() != StateCrashed {
		t.Fatalf("state = %s, want crashed", j1.State())
	}

	m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	j2, err := m2.Resume(j1.ID)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res, err := j2.Wait()
	if err != nil || j2.State() != StateDone {
		t.Fatalf("resumed job: state %s, err %v", j2.State(), err)
	}
	if res.StopReason != "budget exhausted" {
		t.Errorf("resumed run stopped for %q, want budget exhausted", res.StopReason)
	}
	// Cumulative spend matches the uninterrupted budgeted run exactly: the
	// crash-journaled dollars counted against the budget on resume.
	if res.Accounting != base.Accounting {
		t.Errorf("resumed accounting %+v != budgeted baseline %+v — budget not cumulative across resume",
			res.Accounting, base.Accounting)
	}
	if res.True.F1 != base.True.F1 || res.Iterations != base.Iterations {
		t.Errorf("resumed F1 %.4f/%d iters, baseline %.4f/%d",
			res.True.F1, res.Iterations, base.True.F1, base.Iterations)
	}
}

// TestSpecJournaledAtSubmit verifies the submission contract Close's doc
// relies on: the spec record hits the journal at Submit, before any
// executor touches the job, so a job still queued at shutdown is resumable
// by a fresh process from the journal alone.
func TestSpecJournaledAtSubmit(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	// A manager with no worker goroutines: submitted jobs queue forever,
	// exactly like a job still queued when the process dies.
	m := &Manager{
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, 4),
		quit:  make(chan struct{}),
		store: store,
	}
	meta := testMeta(3, 0.1, 0)
	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State() != StateQueued {
		t.Fatalf("state = %s, want queued", j.State())
	}
	if !store.Exists(j.ID) {
		t.Fatalf("no journal for queued job %s; store has %v", j.ID, store.List())
	}
	jl, err := store.Open(j.ID)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	rec, err := jl.ReadSpec()
	jl.Close()
	if err != nil {
		t.Fatalf("queued job's spec not readable: %v", err)
	}
	if rec.Meta == nil || *rec.Meta != meta {
		t.Fatalf("journaled spec = %+v, want meta %+v", rec, meta)
	}

	// The "fresh process": a real manager over the same directory resumes
	// the never-started job from its spec record and runs it to completion.
	m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	j2, err := m2.Resume(j.ID)
	if err != nil {
		t.Fatalf("Resume of queued-at-shutdown job: %v", err)
	}
	res, err := j2.Wait()
	if err != nil || j2.State() != StateDone {
		t.Fatalf("resumed job: state %s, err %v", j2.State(), err)
	}
	want := serialRun(t, meta)
	if res.Accounting != want.Accounting || res.True.F1 != want.True.F1 {
		t.Errorf("resumed-from-queue result %+v/%.4f, serial %+v/%.4f",
			res.Accounting, res.True.F1, want.Accounting, want.True.F1)
	}
}

// TestStoreOpenRepairsTornTail cuts a log's final frame at every byte
// offset — every torn append a hard kill can leave — and verifies
// Store.Open truncates back to the last whole frame so replay restores
// exactly the intact prefix, and the whole log when nothing is missing.
func TestStoreOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	full := appendFrame(nil, kindBatch, []byte(`{"p":[[0,0]],"hits":1}`))
	full = appendFrame(full, kindLabel, []byte(`{"a":0,"b":0,"answers":[true,true],"label":true,"settled":1}`))
	intact := len(full)
	full = appendFrame(full, kindLabel, []byte(`{"a":1,"b":1,"answers":[false,false],"label":false,"settled":0}`))

	logPath := filepath.Join(dir, "torn", logName(0))
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		t.Fatal(err)
	}
	for cut := intact; cut <= len(full); cut++ {
		if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jl, err := store.Open("torn")
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		wantSize, wantLabels, wantAnswers := intact, 1, 2
		if cut == len(full) {
			wantSize, wantLabels, wantAnswers = len(full), 2, 4
		}
		if buf, _ := os.ReadFile(logPath); len(buf) != wantSize || !bytes.Equal(buf, full[:wantSize]) {
			t.Fatalf("cut %d: log is %d bytes after Open, want the %d-byte frame prefix", cut, len(buf), wantSize)
		}
		r := crowd.NewRunner(nil, 0.01)
		got, err := jl.Replay(r)
		jl.Close()
		if err != nil {
			t.Fatalf("cut %d: replay after repair: %v", cut, err)
		}
		if got.Labels != wantLabels || got.Batches != 1 {
			t.Errorf("cut %d: replayed %+v; want %d labels and 1 batch", cut, got, wantLabels)
		}
		if _, ok := r.Cached(record.P(0, 0), crowd.PolicyStrong); !ok {
			t.Errorf("cut %d: intact label before the tear was lost", cut)
		}
		if st := r.Stats(); st.Answers != wantAnswers || st.HITs != 1 {
			t.Errorf("cut %d: restored accounting %+v, want %d answers and 1 HIT", cut, st, wantAnswers)
		}
	}
}

// TestStoreOpenRefusesOldFormat: a job directory holding files of the
// line-log journal that preceded the frame format is refused by name, not
// migrated and not silently replayed as empty.
func TestStoreOpenRefusesOldFormat(t *testing.T) {
	for _, name := range []string{"labels.jsonl", "batches.g000001.jsonl", "snap-g000001.snap"} {
		dir := t.TempDir()
		store, err := NewStore(dir)
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "old"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "old", name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open("old"); !errors.Is(err, ErrOldFormat) {
			t.Errorf("%s: Open err = %v, want ErrOldFormat", name, err)
		}
	}
}

// TestQueueFullRollback pins enqueue's failure paths: a rejected new
// submission leaves no trace (no job record, no journal directory), and a
// rejected resume leaves the prior terminal job's record — and its journal —
// exactly as they were.
func TestQueueFullRollback(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	// No workers and a one-slot queue, so the second enqueue always bounces.
	m := &Manager{
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, 1),
		quit:  make(chan struct{}),
		store: store,
	}
	meta := testMeta(1, 0.1, 0)
	a, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Submit(Spec{Meta: &meta}); err == nil {
		t.Fatal("submit into a full queue succeeded")
	}
	if got := m.Jobs(); len(got) != 1 || got[0] != a {
		t.Fatalf("after rejected submit, Jobs() = %v, want just %s", got, a.ID)
	}
	if got := store.List(); len(got) != 1 || got[0] != a.ID {
		t.Fatalf("rejected submission left a journal: store has %v", got)
	}

	// Resume path: a terminal job with an existing journal. The rejected
	// resume must restore the prior record, not delete it or its journal.
	prev := &Job{
		ID:     "old-0001",
		state:  StateDone,
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
		events: newBroker(),
	}
	m.mu.Lock()
	m.jobs[prev.ID] = prev
	m.order = append(m.order, prev.ID)
	m.mu.Unlock()
	jl, err := store.Open(prev.ID)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := jl.WriteSpec("old", &meta); err != nil {
		t.Fatalf("WriteSpec: %v", err)
	}
	jl.Close()

	if _, err := m.ResumeSpec(prev.ID, Spec{Meta: &meta}); err == nil {
		t.Fatal("resume into a full queue succeeded")
	}
	got, ok := m.Job(prev.ID)
	if !ok || got != prev {
		t.Fatalf("rejected resume erased the prior job record: got %v, %v", got, ok)
	}
	if got.State() != StateDone {
		t.Fatalf("prior job state = %s, want done", got.State())
	}
	if !store.Exists(prev.ID) {
		t.Fatal("rejected resume deleted the prior job's journal")
	}
	if got := m.Jobs(); len(got) != 2 {
		t.Fatalf("order list corrupted by rejected resume: %v", got)
	}
}

func TestResumeErrors(t *testing.T) {
	m, err := NewManager(Options{Workers: 1})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	if _, err := m.Resume("x"); err == nil {
		t.Fatal("resume without a store succeeded")
	}

	dir := t.TempDir()
	md, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer md.Close()
	if _, err := md.Resume("missing"); err == nil {
		t.Fatal("resume of unknown job succeeded")
	}
}

package runsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
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
// the resume tests can prove no journaled answer is bought again.
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
// after its nth crowd batch is durable": it counts log appends of label
// frames alone — a batch-boundary flush, where a checkpoint's append ends
// in its checkpoint frame — and kills at the fsync following the nth.
func crashAfterBatches(n int) FaultFunc {
	seen := 0
	return func(op Op) Fault {
		if op.Kind == OpAppend && strings.HasPrefix(op.File, logPrefix) {
			if frames, _ := decodeFrames(op.Data); len(frames) > 0 && frames[len(frames)-1].kind == kindLabel {
				seen++
			}
		}
		return Fault{Crash: op.Kind == OpSync && seen >= n}
	}
}

// journaledAnswers replays a job's journal into a scratch runner and
// decodes its dump: how many paid answers the journal holds per pair,
// seeds excluded.
func journaledAnswers(t *testing.T, store *Store, id string) (map[record.Pair]int, Replayed) {
	t.Helper()
	jl, err := store.Open(id)
	if err != nil {
		t.Fatalf("open journal %s: %v", id, err)
	}
	defer jl.Close()
	r := crowd.NewRunner(nil, 0.01)
	replayed, err := jl.Replay(r)
	if err != nil {
		t.Fatalf("replay journal %s: %v", id, err)
	}
	out := make(map[record.Pair]int)
	r.DumpLabelLog(func(e []byte) {
		var s struct {
			A, B    int32
			Answers []bool
		}
		if err := json.Unmarshal(e, &s); err != nil {
			t.Fatalf("decode dumped entry %s: %v", e, err)
		}
		if len(s.Answers) > 0 {
			out[record.Pair{A: s.A, B: s.B}] = len(s.Answers)
		}
	})
	return out, replayed
}

// assertAsksPerPair holds a resumed run to the no-double-pay contract
// pair by pair: the crowd was asked each pair exactly as many times as
// the journal gained answers for it across the run.
func assertAsksPerPair(t *testing.T, c *countingCrowd, before, after map[record.Pair]int) {
	t.Helper()
	pairs := make(map[record.Pair]bool)
	for _, m := range []map[record.Pair]int{c.counts, before, after} {
		for p := range m {
			pairs[p] = true
		}
	}
	for p := range pairs {
		if n, want := c.counts[p], after[p]-before[p]; n != want {
			t.Errorf("pair %v asked %d times on resume; the journal went from %d answers to %d",
				p, n, before[p], after[p])
		}
	}
}

// TestKillAndResume is the crash-recovery acceptance test: a job is
// hard-stopped mid-matching (simulated process kill right after a batch
// flush), then resumed from the journal by a fresh manager. The resumed
// run must ask the crowd for no answer the journal holds, spend in total
// exactly what an uninterrupted run spends, and land on the identical
// result.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume integration test in -short mode")
	}
	dir := t.TempDir()
	meta := testMeta(7, 0.2, 0) // oracle crowd: answers are deterministic
	// The 14th flush lands after the last compaction's log took a
	// checkpoint frame, so the kill leaves a snapshot, then labels and a
	// checkpoint in the log, then labels: every replay stage has work.
	const crashAfter = 14

	// Baseline: an uninterrupted run, instrumented to count crowd batch
	// boundaries so we know the injected crash lands mid-run.
	baseSpec, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	baseRunner := crowd.NewRunner(baseSpec.Crowd, baseSpec.Config.PricePerQuestion)
	baseBatches := 0
	baseRunner.AfterBatch = func() { baseBatches++ }
	baseCfg := baseSpec.Config
	baseCfg.Runner = baseRunner
	base, err := engine.Run(baseSpec.Dataset, baseSpec.Crowd, baseCfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseBatches <= crashAfter {
		t.Fatalf("baseline crossed %d crowd batch boundaries; crash after %d would not land mid-run",
			baseBatches, crashAfter)
	}

	// Phase 1: run with crash injection — the fault seam panics (simulating
	// a kill) right after the crashAfter-th crowd batch is flushed.
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
	st, ok := jl.ReadStatus()
	jl.Close()
	if !ok || st.State != StateCrashed {
		t.Fatalf("journal status = %+v, %v; want crashed", st, ok)
	}
	// The paid answers it holds, per pair: none of them may be asked again.
	journaled, replayed := journaledAnswers(t, store, j1.ID)
	if len(journaled) == 0 {
		t.Fatal("crash journal holds no non-seed answer; crash fired too early")
	}
	journalAnswers := 0
	for _, n := range journaled {
		journalAnswers += n
	}
	if journalAnswers >= base.Accounting.Answers {
		t.Fatalf("crash journal holds %d answers, baseline total is %d; crash fired too late",
			journalAnswers, base.Accounting.Answers)
	}
	if replayed.Checkpoints == 0 {
		t.Fatalf("crash journal replayed %+v; want some checkpoints", replayed)
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

	// No journaled answer bought again: per pair, the crowd was asked only
	// for the answers the journal gained on resume.
	final, _ := journaledAnswers(t, store, j1.ID)
	assertAsksPerPair(t, counting, journaled, final)

	// Total spend conservation: re-asking a journaled answer charges it
	// again, so the resumed run's cumulative spend equals the
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
	st, ok = jl2.ReadStatus()
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
	runner.AfterBatch = func() { batches++ }
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
		t.Fatalf("budgeted baseline crossed %d batch boundaries; crash after %d would not land mid-run",
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

// TestResumeNoisyFinishedJobExact resumes finished jobs under a noisy
// crowd, where an answer asked again can differ from the journaled one:
// the resumed run must re-derive the identical Result without asking the
// crowd anything.
func TestResumeNoisyFinishedJobExact(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy resume sweep in -short mode")
	}
	const seeds = 30
	opts := Options{Workers: 2, JournalDir: t.TempDir()}
	m1, err := NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	metas := make([]Meta, seeds)
	jobs := make([]*Job, seeds)
	for i := range jobs {
		metas[i] = testMeta(int64(i+1), 0.1, 0.05)
		if jobs[i], err = m1.Submit(Spec{Meta: &metas[i]}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	results := make([]*engine.Result, seeds)
	for i, j := range jobs {
		if results[i], err = j.Wait(); err != nil || j.State() != StateDone {
			t.Fatalf("seed %d: state %s, err %v", i+1, j.State(), err)
		}
	}
	m1.Close()

	m2, err := NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	crowds := make([]*countingCrowd, seeds)
	resumed := make([]*Job, seeds)
	for i, j := range jobs {
		spec, err := BuildSpec(metas[i])
		if err != nil {
			t.Fatalf("BuildSpec: %v", err)
		}
		crowds[i] = &countingCrowd{inner: spec.Crowd}
		spec.Crowd = crowds[i]
		if resumed[i], err = m2.ResumeSpec(j.ID, spec); err != nil {
			t.Fatalf("ResumeSpec: %v", err)
		}
	}
	for i, j := range resumed {
		res, err := j.Wait()
		if err != nil || j.State() != StateDone {
			t.Fatalf("seed %d resume: state %s, err %v", i+1, j.State(), err)
		}
		if !reflect.DeepEqual(res, results[i]) {
			t.Errorf("seed %d: resumed Result differs (accounting %+v, was %+v)",
				i+1, res.Accounting, results[i].Accounting)
		}
		if crowds[i].total != 0 {
			t.Errorf("seed %d: resume of a finished job asked the crowd %d times", i+1, crowds[i].total)
		}
	}
}

// failEvery is an oracle that fails every nth ask as unavailable.
type failEvery struct {
	inner crowd.Crowd
	n     int

	mu   sync.Mutex
	asks int
}

func (f *failEvery) AnswerErr(p record.Pair) (bool, error) {
	f.mu.Lock()
	f.asks++
	fail := f.asks%f.n == 0
	f.mu.Unlock()
	if fail {
		return false, crowd.ErrUnavailable
	}
	return f.inner.Answer(p), nil
}

func (f *failEvery) Answer(p record.Pair) bool {
	a, err := f.AnswerErr(p)
	return err == nil && a
}

// TestResumeDegradedChargesStranded kills a degraded job — crowd failures
// past the retry budget left pairs short of answers, so the run took a
// path an unfaulted run would not — and resumes it with a healthy crowd.
// The resumed run leaves the journaled path at the first pair it must ask
// live, and may never re-ask answers journaled after that point; the
// accounting must still hold every one of them.
func TestResumeDegradedChargesStranded(t *testing.T) {
	if testing.Short() {
		t.Skip("degraded resume sweep in -short mode")
	}
	for seed := int64(1); seed <= 30; seed++ {
		meta := testMeta(seed, 0.1, 0)
		spec, err := BuildSpec(meta)
		if err != nil {
			t.Fatalf("BuildSpec: %v", err)
		}
		dir := t.TempDir()
		m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		m1.Store().Faults = crashAfterBatches(8)
		flaky := spec
		flaky.Crowd = &failEvery{inner: spec.Crowd, n: 37}
		flaky.Retry = retry.Policy{Attempts: 1}
		j1, err := m1.Submit(flaky)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		j1.Wait()
		m1.Close()
		if j1.State() != StateCrashed {
			t.Fatalf("seed %d: session 1 ended %s, want crashed", seed, j1.State())
		}
		journaled, _ := journaledAnswers(t, m1.Store(), j1.ID)
		answers := 0
		for _, n := range journaled {
			answers += n
		}

		m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		counting := &countingCrowd{inner: spec.Crowd}
		healthy := spec
		healthy.Crowd = counting
		j2, err := m2.ResumeSpec(j1.ID, healthy)
		if err != nil {
			t.Fatalf("ResumeSpec: %v", err)
		}
		res, err := j2.Wait()
		m2.Close()
		if err != nil || j2.State() != StateDone {
			t.Fatalf("seed %d: resume ended %s, err %v", seed, j2.State(), err)
		}
		if got, want := res.Accounting.Answers, answers+counting.total; got != want {
			t.Errorf("seed %d: resumed run reports %d answers; %d journaled + %d asked live = %d",
				seed, got, answers, counting.total, want)
		}
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

// oracleFor is the oracle crowd of a ground truth holding exactly the
// given matches.
func oracleFor(matches ...record.Pair) *countingCrowd {
	return &countingCrowd{inner: &crowd.Oracle{Truth: record.NewGroundTruth(matches)}}
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
	full := appendFrame(nil, kindCheckpoint, []byte(`{"phase":"blocking"}`))
	full = appendFrame(full, kindLabel, []byte(`{"a":0,"b":0,"answers":[true,true]}`))
	intact := len(full)
	full = appendFrame(full, kindLabel, []byte(`{"a":1,"b":0,"answers":[false,false]}`))

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
		c := oracleFor(record.P(0, 0))
		r := crowd.NewRunner(c, 0.01)
		got, err := jl.Replay(r)
		jl.Close()
		if err != nil {
			t.Fatalf("cut %d: replay after repair: %v", cut, err)
		}
		if got.Labels != wantLabels || got.Checkpoints != 1 {
			t.Errorf("cut %d: replayed %+v; want %d labels and 1 checkpoint", cut, got, wantLabels)
		}
		if answers, _ := r.Restored(); answers != wantAnswers {
			t.Errorf("cut %d: restored %d answers, want %d", cut, answers, wantAnswers)
		}
		// Re-asking the intact pair is served from the journal: no crowd
		// call, its two answers charged at the runner's price.
		if !r.Label(record.P(0, 0), crowd.Policy21) || c.total != 0 || r.Stats().Answers != 2 ||
			r.Stats().Cost != 0.02 {
			t.Errorf("cut %d: re-asking the intact pair took %d crowd calls, accounting %+v", cut, c.total, r.Stats())
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

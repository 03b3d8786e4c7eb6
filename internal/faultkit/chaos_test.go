package faultkit

// The chaos suite is the tentpole end-to-end proof: a full Corleone run
// driven through the real HTTP marketplace and the real runsvc journal,
// with seeded faults on both, must land on the exact result and accounting
// of an unfaulted run. Each schedule is bounded (Limit), so every case
// converges: transport faults are absorbed by retries, reissues, and the
// breaker; journal faults kill the process and the next epoch resumes from
// the journal. Invariants per epoch: no answer the journal holds is bought
// again (no double-pay). Invariants at the end: Accounting,
// Matches, estimates, and stop metadata are bit-identical to the baseline,
// and Degraded is false — every lost answer was eventually re-bought
// exactly once.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/platform"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
	"github.com/corleone-em/corleone/internal/runsvc"
)

// countingCrowdErr counts the answers it returns per pair, so the suite
// can prove no journaled answer is bought again. Failed asks are not
// answers: nothing was paid for them.
type countingCrowdErr struct {
	inner crowd.CrowdErr

	mu     sync.Mutex
	counts map[record.Pair]int
}

func (c *countingCrowdErr) AnswerErr(p record.Pair) (bool, error) {
	a, err := c.inner.AnswerErr(p)
	if err == nil {
		c.mu.Lock()
		if c.counts == nil {
			c.counts = make(map[record.Pair]int)
		}
		c.counts[p]++
		c.mu.Unlock()
	}
	return a, err
}

func (c *countingCrowdErr) Answer(p record.Pair) bool {
	a, err := c.AnswerErr(p)
	return err == nil && a
}

// assertAnswersPerPair checks one epoch against the journal it started
// from (before) and the one it left (after): the journal never loses an
// answer, and the crowd answered each pair at least — or, for an epoch
// that finished and flushed everything, exactly — as many times as the
// journal gained answers for it. An answer the journal already held and
// the crowd answered again is a double-pay, and breaks the count.
func (c *countingCrowdErr) assertAnswersPerPair(t *testing.T, what string, before, after map[record.Pair]int, finished bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	pairs := make(map[record.Pair]bool)
	for _, m := range []map[record.Pair]int{c.counts, before, after} {
		for p := range m {
			pairs[p] = true
		}
	}
	for p := range pairs {
		n, gained := c.counts[p], after[p]-before[p]
		if gained < 0 || n < gained || finished && n != gained {
			t.Errorf("%s: pair %v answered %d times; the journal went from %d answers to %d",
				what, p, n, before[p], after[p])
		}
	}
}

func samePairs(a, b []record.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[record.Pair]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	for _, p := range b {
		if !set[p] {
			return false
		}
	}
	return true
}

// chaosClient tunes the resilient client for an in-process marketplace
// under fault injection: tight seeded backoff, a breaker that recovers
// fast enough to ride out 5xx bursts without stalling the run.
func chaosClient(url string, seed int64) *platform.Client {
	c := platform.NewClient(url) //corlint:allow det-time — chaos harness drives the live-platform client on purpose; determinism is pinned by the seeded fault schedules, not the clock
	rp := platform.NewRetryPolicy(seed)
	rp.Attempts = 4
	rp.Base = 2 * time.Millisecond
	rp.Max = 20 * time.Millisecond
	rp.Budget = 2 * time.Second
	c.Retry = rp
	c.Breaker = &platform.Breaker{Threshold: 6, Cooldown: 15 * time.Millisecond}
	return c
}

// journaledAnswers replays the job's journal into a scratch runner and
// decodes its dump: how many paid answers the journal holds per pair,
// seeds excluded.
func journaledAnswers(t *testing.T, dir, jobID string) map[record.Pair]int {
	t.Helper()
	out := make(map[record.Pair]int)
	if jobID == "" {
		return out
	}
	store, err := runsvc.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	jl, err := store.Open(jobID)
	if err != nil {
		t.Fatalf("open journal %s: %v", jobID, err)
	}
	defer jl.Close()
	scratch := crowd.NewRunner(nil, 0.01)
	if _, err := jl.Replay(scratch); err != nil {
		t.Fatalf("replay journal %s: %v", jobID, err)
	}
	scratch.DumpLabelLog(func(e []byte) {
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
	return out
}

type chaosCase struct {
	name      string
	transport *Schedule
	journal   *JournalSchedule
	// meta, when set, replaces the suite's job with a shape that writes the
	// snapshot generations the case needs.
	meta *runsvc.Meta
}

// chaosBaseline runs meta's job unfaulted. Oracle crowd (ErrorRate 0):
// answers are a pure function of the pair, so every re-bought answer
// matches the lost one and the faulted runs can converge bit-identically
// to this baseline.
func chaosBaseline(t *testing.T, meta runsvc.Meta) *engine.Result {
	t.Helper()
	spec, err := runsvc.BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	cfg := spec.Config
	cfg.Runner = crowd.NewRunner(spec.Crowd, spec.Config.PricePerQuestion)
	base, err := engine.Run(spec.Dataset, spec.Crowd, cfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return base
}

func TestChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite in -short mode")
	}
	meta := runsvc.Meta{Profile: "restaurants", Scale: 0.12, Seed: 11}
	base := chaosBaseline(t, meta)

	cases := []chaosCase{
		{name: "5xx-burst", transport: &Schedule{Seed: 101, P5xx: 0.05, Burst: 4, Limit: 40}},
		{name: "drop", transport: &Schedule{Seed: 102, PDrop: 0.05, Limit: 30}},
		{name: "drop-after", transport: &Schedule{Seed: 103, PDropAfter: 0.04, Limit: 25}},
		{name: "latency", transport: &Schedule{Seed: 104, PLatency: 0.2, Latency: 10 * time.Millisecond, Limit: 40}},
		{name: "mixed-transport", transport: &Schedule{
			Seed: 105, P5xx: 0.03, PDrop: 0.02, PDropAfter: 0.02, PLatency: 0.05,
			Burst: 2, Latency: 5 * time.Millisecond, Limit: 40}},
		{name: "torn-journal", journal: &JournalSchedule{Seed: 106, PTear: 0.08, Limit: 3}},
		{name: "kill-points", journal: &JournalSchedule{Seed: 107, PKill: 0.05, Limit: 3}},
		{name: "journal-plus-transport",
			transport: &Schedule{Seed: 108, P5xx: 0.03, PDrop: 0.02, Burst: 2, Limit: 25},
			journal:   &JournalSchedule{Seed: 108, PTear: 0.05, PKill: 0.05, Limit: 2}},
		{name: "kitchen-sink",
			transport: &Schedule{
				Seed: 109, P5xx: 0.02, PDrop: 0.02, PDropAfter: 0.02, PLatency: 0.04,
				Burst: 3, Latency: 5 * time.Millisecond, Limit: 30},
			journal: &JournalSchedule{Seed: 109, PTear: 0.04, PKill: 0.04, Limit: 3}},
		// Compaction chaos: kills restricted to the snapshot lifecycle's
		// boundaries (tmp written, installed, directory synced, pruned) and
		// CRC-detectable bit rot.
		{name: "snap-kill-points",
			journal: &JournalSchedule{Seed: 110, PKill: 0.3, Only: SnapshotOps, Limit: 3}},
		// Every kill lands right after a generation's rename, before its
		// log exists: the next epoch must restore from snap.gN alone.
		{name: "snap-kill-installed",
			journal: &JournalSchedule{Seed: 111, PKill: 1, Limit: 2, Only: func(op runsvc.Op) bool {
				return op.Kind == runsvc.OpRename && SnapshotOps(op)
			}}},
		// Generation 1 is spared: rot there leaves no older generation to
		// fall back to, and replay refuses outright (runsvc pins that). The
		// suite's job writes two generations, the first holding only its
		// seeds, so the case runs a job that writes three.
		{name: "snap-corrupt-fallback", meta: &runsvc.Meta{Profile: "restaurants", Scale: 0.2, Seed: 3},
			journal: &JournalSchedule{Seed: 116, PFlip: 0.35, PKill: 0.25, Limit: 4, Only: func(op runsvc.Op) bool {
				return SnapshotOps(op) && !strings.HasSuffix(op.File, "snap.g000001")
			}}},
		{name: "snapshot-plus-journal",
			journal: &JournalSchedule{Seed: 113, PTear: 0.015, PKill: 0.03, Limit: 4}},
	}
	for i, tc := range cases {
		tc, caseSeed := tc, int64(i+1)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.meta != nil {
				runChaos(t, tc, *tc.meta, chaosBaseline(t, *tc.meta), caseSeed)
				return
			}
			runChaos(t, tc, meta, base, caseSeed)
		})
	}
}

func runChaos(t *testing.T, tc chaosCase, meta runsvc.Meta, base *engine.Result, caseSeed int64) {
	spec, err := runsvc.BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	server := platform.NewServer()
	var handler http.Handler = server.Handler()
	if tc.transport != nil {
		handler = tc.transport.Handler(handler)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// Workers share the faulty transport: their claims and submits hit the
	// same schedule, exercising claim abandonment, submit retries, and the
	// server-side dedupe.
	pool := platform.StartWorkers(chaosClient(srv.URL, caseSeed*1009+1), 3, //corlint:allow det-time — worker pool polls the live marketplace by design; the test asserts bit-identical results under seeded schedules
		&crowd.Oracle{Truth: spec.Dataset.Truth}, time.Millisecond)
	defer pool.Stop()

	dir := t.TempDir()
	var jobID string
	var fallbacks int64
	resumedOverAnswers := false
	for epoch := 0; ; epoch++ {
		if epoch > 30 {
			t.Fatalf("job not done after %d resumes; schedule never went quiet?", epoch)
		}
		journaled := journaledAnswers(t, dir, jobID)
		resumedOverAnswers = resumedOverAnswers || len(journaled) > 0

		mgr, err := runsvc.NewManager(runsvc.Options{Workers: 1, JournalDir: dir}) //corlint:allow det-time — the journaling service stamps operator-facing submission times; replay correctness never reads them back
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		if tc.journal != nil {
			mgr.Store().Faults = tc.journal.FaultFunc()
		}

		// A fresh client per epoch mirrors a fresh process: new idempotency
		// salt, cold breaker. The answer deadline stays generous — the
		// per-call retry budget, not the deadline, absorbs the faults.
		rc := &platform.RemoteCrowd{
			Client:       chaosClient(srv.URL, caseSeed*7919+int64(epoch)),
			Dataset:      spec.Dataset,
			RewardCents:  1,
			Poll:         time.Millisecond,
			Timeout:      30 * time.Second,
			ReissueAfter: 300 * time.Millisecond,
			MaxReissues:  4,
		}
		counter := &countingCrowdErr{inner: rc}
		jobSpec := runsvc.Spec{
			Name:    spec.Name,
			Dataset: spec.Dataset,
			Crowd:   counter,
			Config:  spec.Config,
			Meta:    &meta,
			Retry:   retry.Policy{Attempts: 8, Base: 2 * time.Millisecond, Max: 25 * time.Millisecond},
		}
		var job *runsvc.Job
		if jobID == "" {
			job, err = mgr.Submit(jobSpec)
		} else {
			job, err = mgr.ResumeSpec(jobID, jobSpec)
		}
		if err != nil {
			mgr.Close()
			t.Fatalf("epoch %d: submit/resume: %v", epoch, err)
		}
		jobID = job.ID
		res, runErr := job.Wait()
		state := job.State()
		fallbacks += mgr.Store().SnapshotFallbacks()
		mgr.Close()

		// No double-pay: per pair, the crowd answered at least what the
		// journal gained this epoch (a crash loses the answers after the
		// last flush) and, once the run finished, exactly that.
		counter.assertAnswersPerPair(t, fmt.Sprintf("epoch %d", epoch),
			journaled, journaledAnswers(t, dir, jobID), state == runsvc.StateDone)

		switch state {
		case runsvc.StateDone:
			// Guard against a silently fault-free run: every schedule's
			// probabilities are sized so faults certainly fired at this
			// request volume. A tear or kill implies at least one resume.
			if tc.transport != nil && tc.transport.Injected() == 0 {
				t.Error("transport schedule injected no faults; case proved nothing")
			}
			if tc.journal != nil && tc.journal.Injected() == 0 {
				t.Error("journal schedule injected no faults; case proved nothing")
			}
			if tc.journal != nil && tc.journal.PFlip > 0 && fallbacks == 0 {
				t.Error("no resume fell back past a flipped generation; case proved nothing")
			}
			if tc.journal != nil && !resumedOverAnswers {
				t.Error("no epoch resumed from a journal holding answers; the double-pay check proved nothing")
			}
			assertChaosResult(t, res, base)
			return
		case runsvc.StateCrashed:
			// An injected kill-point; the next epoch resumes the journal.
		default:
			t.Fatalf("epoch %d: job state %s (err %v)", epoch, state, runErr)
		}
	}
}

func assertChaosResult(t *testing.T, res, base *engine.Result) {
	t.Helper()
	if res == nil {
		t.Fatal("done job returned a nil result")
	}
	if res.Accounting != base.Accounting {
		t.Errorf("accounting diverged from unfaulted baseline:\n got  %+v\n want %+v",
			res.Accounting, base.Accounting)
	}
	if res.Accounting.Degraded {
		t.Error("converged run still flagged degraded")
	}
	if !samePairs(res.Matches, base.Matches) {
		t.Errorf("matches diverged: got %d pairs, want %d", len(res.Matches), len(base.Matches))
	}
	if res.EstimatedF1 != base.EstimatedF1 {
		t.Errorf("estimated F1 = %v, want %v", res.EstimatedF1, base.EstimatedF1)
	}
	if res.True.F1 != base.True.F1 {
		t.Errorf("true F1 = %v, want %v", res.True.F1, base.True.F1)
	}
	if res.StopReason != base.StopReason {
		t.Errorf("stop reason = %q, want %q", res.StopReason, base.StopReason)
	}
	if res.Iterations != base.Iterations {
		t.Errorf("iterations = %d, want %d", res.Iterations, base.Iterations)
	}
}

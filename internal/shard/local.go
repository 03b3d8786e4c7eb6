package shard

import (
	"sync"
	"sync/atomic"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// prober is one goroutine's reusable probe state and the one loop every
// executor — in-process or a remote worker — runs a task through.
type prober struct {
	v      *Verifier
	is     *simindex.Scratch
	probes []*similarity.Profile
	out    []record.Pair
}

// newProber returns probe state for a job of n probes.
func newProber(ex *feature.Extractor, rules []tree.Rule, n int) *prober {
	return &prober{v: NewVerifier(ex, rules), is: simindex.NewScratch(), probes: make([]*similarity.Profile, n)}
}

// run executes one task against its shard: for each row in [ALo, AHi) the
// union of the probes' candidates (profA[i] is table A's column for probe
// i), verified against the full rule set as positions of run — the shard's
// rows (Index.NewRun) under the extractor the rules' features are read from.
// It returns the survivors in (a, b) order as a fresh exact-size slice — the
// working buffers stay with the prober — and how many candidates it verified.
func (p *prober) run(ix *Index, run *feature.Run, profA [][]*similarity.Profile, thetas []float64, t Task) ([]record.Pair, int) {
	p.out = p.out[:0]
	generated := 0
	for a := t.ALo; a < t.AHi; a++ {
		for i, col := range profA {
			p.probes[i] = col[a]
		}
		cand := ix.Candidates(p.probes, thetas, p.is)
		generated += len(cand)
		p.out = p.v.RowSurvivors(p.out, a, run, cand)
	}
	if len(p.out) == 0 {
		return nil, generated
	}
	return append(make([]record.Pair, 0, len(p.out)), p.out...), generated
}

// LocalExecutor runs shard tasks in-process against a prebuilt Group —
// the stream the remote executor is held to. (Blocking itself probes one
// Index directly; it runs no tasks.)
// It is the reference implementation of the task semantics: probe the
// task's shard for each row in [ALo, AHi), verify every candidate with the
// shared memoized evaluator, return survivors in (a, b) order. Safe for
// concurrent Probe calls.
type LocalExecutor struct {
	group     *Group
	runs      []*feature.Run // by shard: its rows under the executor's extractor
	profA     [][]*similarity.Profile
	thetas    []float64
	pool      sync.Pool
	generated atomic.Int64
}

// NewLocalExecutor binds the executor to a single-probe shard group over
// table B's anchor-feature profiles, the probe-side (table A) profiles, the
// rule set, and the anchor probe threshold: NewUnionExecutor for a union of
// one.
func NewLocalExecutor(ex *feature.Extractor, group *Group, profA []*similarity.Profile, rules []tree.Rule, theta float64) *LocalExecutor {
	return NewUnionExecutor(ex, group, [][]*similarity.Profile{profA}, rules, []float64{theta})
}

// NewUnionExecutor binds the executor to a shard group built over the
// probes' table B columns (BuildUnionGroup), the probes' table A columns
// and thresholds in the same order, and the rule set every candidate is
// verified against. The wire protocol moves the same per-job constants
// through JobSpec; the local executor takes them at construction instead —
// same values, no wire.
func NewUnionExecutor(ex *feature.Extractor, group *Group, profA [][]*similarity.Profile, rules []tree.Rule, thetas []float64) *LocalExecutor {
	e := &LocalExecutor{group: group, runs: make([]*feature.Run, group.K()), profA: profA, thetas: thetas}
	for s := range e.runs {
		e.runs[s] = group.Shard(s).NewRun(ex)
	}
	e.pool.New = func() any { return newProber(ex, rules, len(profA)) }
	return e
}

// Probe implements Executor: the run's tasks are probed one after the
// other on one goroutine's pooled state. It cannot fail.
func (e *LocalExecutor) Probe(tasks []Task, _ int) ([][]record.Pair, error) {
	p := e.pool.Get().(*prober)
	defer e.pool.Put(p)
	results := make([][]record.Pair, len(tasks))
	generated := 0
	for i, t := range tasks {
		var n int
		results[i], n = p.run(e.group.Shard(t.Shard), e.runs[t.Shard], e.profA, e.thetas, t)
		generated += n
	}
	e.generated.Add(int64(generated))
	return results, nil
}

// Generated returns how many candidate pairs the executor has verified so
// far — what the plan's estimate predicted. It depends on the shard count
// (Jaccard prefix filters order tokens by per-shard postings lengths), so it
// is a diagnostic and never part of a Result.
func (e *LocalExecutor) Generated() int64 { return e.generated.Load() }

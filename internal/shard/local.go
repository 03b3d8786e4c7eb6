package shard

import (
	"sync"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// LocalExecutor runs shard tasks in-process against a prebuilt Group —
// the executor the blocker uses when no worker endpoints are configured.
// It is the reference implementation of the task semantics: probe the
// task's shard for each row in [ALo, AHi), verify every candidate with the
// shared memoized evaluator, return survivors in (a, b) order. Safe for
// concurrent Probe calls.
type LocalExecutor struct {
	group *Group
	profA []*similarity.Profile
	theta float64
	pool  sync.Pool
}

// localState is one goroutine's reusable probe state.
type localState struct {
	v    *Verifier
	is   *simindex.Scratch
	cand []int32
}

// NewLocalExecutor binds the executor to a shard group over table B's
// anchor-feature profiles, the probe-side (table A) profiles, the rule
// set, and the anchor probe threshold. The wire protocol moves the same
// per-job constants through JobSpec; the local executor takes them at
// construction instead — same values, no wire.
func NewLocalExecutor(ex *feature.Extractor, group *Group, profA []*similarity.Profile, rules []tree.Rule, theta float64) *LocalExecutor {
	e := &LocalExecutor{group: group, profA: profA, theta: theta}
	e.pool.New = func() any {
		return &localState{v: NewVerifier(ex, rules), is: simindex.NewScratch()}
	}
	return e
}

// Probe implements Executor: the run's tasks are probed one after the
// other on one goroutine's pooled state. It cannot fail.
func (e *LocalExecutor) Probe(tasks []Task, _ int) ([][]record.Pair, error) {
	st := e.pool.Get().(*localState)
	defer e.pool.Put(st)
	results := make([][]record.Pair, len(tasks))
	for i, t := range tasks {
		sh := e.group.Shard(t.Shard)
		var out []record.Pair
		for a := t.ALo; a < t.AHi; a++ {
			st.cand = sh.Candidates(e.profA[a], e.theta, st.is, st.cand[:0])
			for _, b := range st.cand {
				p := record.Pair{A: a, B: b}
				if st.v.Survives(p) {
					out = append(out, p)
				}
			}
		}
		results[i] = out
	}
	return results, nil
}

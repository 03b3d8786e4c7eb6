package blocker

import (
	"runtime"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/shard"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// plan is the candidate-generation strategy for one rule set. The §4.3
// scan visits all of A×B; when one selected rule is an indexable
// high-similarity join complement — a conjunction of sim(f) ≤ θ predicates
// on a single set-based feature — every survivor of the full rule set must
// have sim(f) > θ, so an inverted index over f's tokens on table B can
// enumerate a complete superset of the survivors directly.
type plan struct {
	// indexed reports whether an anchor was found; the remaining fields are
	// meaningful only when it is true.
	indexed bool
	// feature is the anchor's feature index, kind its index kind, and theta
	// the effective threshold (the minimum over the rule's ≤-thresholds).
	feature int
	kind    simindex.Kind
	theta   float64
}

// anchorOf inspects one rule: if every predicate tests the same set-based
// feature with Op ≤ and a non-negative effective threshold, the rule's
// survivors are exactly {pairs : sim(f) > θ} and it can anchor an index
// probe. Negative thresholds are rejected because sim > θ then admits
// pairs sharing no tokens at all, which no inverted index can enumerate.
func anchorOf(ex *feature.Extractor, r tree.Rule) (plan, bool) {
	if len(r.Preds) == 0 {
		return plan{}, false
	}
	f := r.Preds[0].Feature
	theta := r.Preds[0].Threshold
	for _, p := range r.Preds {
		if p.Op != tree.LE || p.Feature != f {
			return plan{}, false
		}
		if p.Threshold < theta {
			theta = p.Threshold
		}
	}
	if theta < 0 {
		return plan{}, false
	}
	kind, ok := simindex.KindOf(ex.Features()[f].Kind)
	if !ok {
		return plan{}, false
	}
	return plan{indexed: true, feature: f, kind: kind, theta: theta}, true
}

// planRules picks the most selective indexable anchor among the selected
// rules: the highest effective threshold (a tighter join admits fewer
// candidates), feature index breaking ties for determinism. When no rule
// is index-friendly the plan falls back to the exhaustive scan.
func planRules(ex *feature.Extractor, rules []tree.Rule) plan {
	best := plan{}
	for _, r := range rules {
		p, ok := anchorOf(ex, r)
		if !ok {
			continue
		}
		if !best.indexed || p.theta > best.theta ||
			//corlint:allow float-eq — deterministic tie-break: equal thetas must resolve by feature id so the planner picks the same anchor at every GOMAXPROCS
			(p.theta == best.theta && p.feature < best.feature) {
			best = p
		}
	}
	return best
}

// execConfig carries the execution-strategy knobs from Config into the
// planner: shard count (0 = automatic), fan-out width, an optional
// executor override (the remote worker path), the job id shard tasks carry,
// and an optional stats sink.
type execConfig struct {
	shards  int
	workers int
	batch   int
	exec    shard.Executor
	job     string
	stats   *shard.Stats
}

// applyRulesTo streams the survivors of the selected rules over A×B to
// sink, in (a, b)-lexicographic order. There are two strategies: when a
// selected rule can anchor an inverted index, candidates come from shard
// probes driven by the coordinator (one shard for a small table, more when
// the table is large or the count is configured; in-process or on remote
// workers); otherwise every cell is visited by the parallel exhaustive
// scan. The emitted pair stream is identical either way (every candidate is
// verified against all rules by the same evaluator); only the number of
// pairs visited and where the work runs differ. The returned error is
// always nil for in-process execution; only a remote executor can fail.
func applyRulesTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule, ec execConfig, sink Sink) error {
	if len(rules) == 0 {
		emitAllPairs(ds, sink)
		return nil
	}
	p := planRules(ex, rules)
	if !p.indexed {
		applyRulesScanTo(ds, ex, rules, sink)
		return nil
	}
	return applyRulesShardedTo(ds, ex, rules, p, shard.Choose(ec.shards, ds.B.Len()), ec, sink)
}

// applyRulesScanTo is the exhaustive §4.3 scan: every cell of A×B is
// visited, in parallel, with features computed lazily per pair and
// memoized across rules. Work is handed out in fixed-size blocks of the
// flattened (int64) pair space and chunks are re-sequenced before emission,
// so the output order is (a, b)-lexicographic at every GOMAXPROCS and peak
// memory stays bounded by the reorder window — not the survivor count.
func applyRulesScanTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule, sink Sink) {
	na, nb := int64(ds.A.Len()), int64(ds.B.Len())
	total := na * nb
	if total <= 0 {
		return
	}
	blocks := (total + blockPairs - 1) / blockPairs
	workers := runtime.GOMAXPROCS(0)
	if int64(workers) > blocks {
		workers = int(blocks)
	}
	// Chunk buffers cycle between the workers and the emit callback: a
	// delivered chunk's buffer goes back on free, a claimer takes one from
	// there or allocates. Every buffer belongs to a claimed, undelivered
	// block or sits on free, and a claimer allocates only on finding free
	// empty, so at most window buffers ever exist and the send in emit
	// (which runs under the fan-out's lock) cannot block.
	window := workers * seqWindowPerWorker
	free := make(chan []record.Pair, window)
	q := par.NewOrdered(int(blocks), window, func(_ int, chunk []record.Pair) {
		if len(chunk) > 0 {
			sink(chunk)
		}
		free <- chunk
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := shard.NewVerifier(ex, rules)
			for {
				block, _, ok := q.Claim(1)
				if !ok {
					return
				}
				var buf []record.Pair
				select {
				case buf = <-free:
					buf = buf[:0]
				default:
					buf = make([]record.Pair, 0, blockPairs)
				}
				lo := int64(block) * blockPairs
				hi := lo + blockPairs
				if hi > total {
					hi = total
				}
				for i := lo; i < hi; i++ {
					p := record.Pair{A: int32(i / nb), B: int32(i % nb)}
					if v.Survives(p) {
						buf = append(buf, p)
					}
				}
				q.Complete(block, buf)
			}
		}()
	}
	wg.Wait()
}

// applyRulesShardedTo generates candidates through k independent shard
// indexes driven by the shard coordinator: the probe space is cut into
// (A-row-block × shard) tasks, executed in-process (goroutine workers over a
// prebuilt shard group) or on remote worker processes when an executor
// override is configured. For each A row a task probes the anchor feature's
// postings over its shard of table B, then verifies every candidate against
// the full rule set with the same evaluator the scan uses. Index
// completeness (see simindex.Candidates) guarantees the candidates are a
// superset of the anchor rule's survivors, which contain the full rule
// set's survivors; exact verification then yields the scan's stream.
//
// The coordinator delivers results in task order — block-major,
// shard-minor — so the k consecutive survivor lists of one probe block are
// k-way merged by (a, b) and emitted; at k == 1 a task's list already is
// the block's chunk. The stream is byte-identical at every k, worker count,
// and completion order. Per-shard candidate SUPERSETS do differ with k
// (prefix-filter token order depends on per-index postings lengths), but
// supersets only decide which pairs get verified; the shared exact Verifier
// decides who survives.
func applyRulesShardedTo(ds *record.Dataset, ex *feature.Extractor, rules []tree.Rule,
	p plan, k int, ec execConfig, sink Sink) error {

	na := ds.A.Len()
	if na <= 0 || ds.B.Len() <= 0 {
		return nil
	}
	exec := ec.exec
	c := &shard.Coordinator{Workers: ec.workers, Stats: ec.stats, Batch: ec.batch}
	if exec == nil {
		profA, profB := ex.Profiles(p.feature)
		exec = shard.NewLocalExecutor(ex, shard.BuildGroup(p.kind, profB, k), profA, rules, p.theta)
	} else {
		// Remote attempts pace retries so a restarting worker process gets
		// a window to come back before its breaker trips again.
		c.Backoff = 50 * time.Millisecond
		if c.Batch <= 0 {
			// Batched pipelined probes are the remote path's default: one
			// round trip per run of same-shard tasks instead of one per
			// task. Local execution pays no per-task transport, so it keeps
			// claims of one.
			c.Batch = 16 * k
		}
	}
	job := ec.job
	if job == "" {
		job = ds.Name
	}
	// Bind the per-job constants to executors that need them before tasks
	// flow: the remote executor stamps them into its /shard/load spec (and
	// wires the byte counters), keeping every probe request lean.
	if jb, ok := exec.(shard.JobBinder); ok {
		jb.BindJob(shard.JobParams{
			Job: job, Shards: k, Feature: p.feature, Theta: p.theta,
			Rules: rules, Stats: ec.stats,
		})
	}
	tasks := shard.BlockTasks(job, na, k)

	// Results arrive in Seq order, and the emit callback is serialized by
	// the coordinator, so no locking here. At k > 1 the k per-shard lists of
	// each probe block are consecutive: collect k, merge by (a, b), emit. At
	// k == 1 a task's list is the block's chunk as is — freshly allocated
	// and never reused, which satisfies the Sink contract without a copy.
	per := make([][]record.Pair, k)
	var merged []record.Pair
	filled := 0
	return c.Run(tasks, exec, func(_ int, pairs []record.Pair) {
		if k > 1 {
			per[filled] = pairs
			filled++
			if filled < k {
				return
			}
			filled = 0
			merged = shard.MergePairs(merged, per)
			pairs = merged
		}
		if len(pairs) > 0 {
			sink(pairs)
		}
	})
}

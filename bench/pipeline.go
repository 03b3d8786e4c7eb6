package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/feature"
)

// fingerprint condenses what a caller gets back from one run — matches,
// crowd accounting, the estimated F1 and the stop reason — so that runs of
// the same instance can be checked for bit-identical output.
func fingerprint(res *engine.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range res.Matches {
		binary.LittleEndian.PutUint32(buf[:4], uint32(p.A))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.B))
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "|%+v|%x|%s", res.Accounting, math.Float64bits(res.EstimatedF1), res.StopReason)
	return fmt.Sprintf("%d:%016x", len(res.Matches), h.Sum64())
}

// runInstance executes one engine.Run with a fresh crowd and returns its
// wall time in seconds.
func runInstance(in *instance) (*engine.Result, float64, error) {
	c := in.newCrowd()
	t0 := now()
	res, err := engine.Run(in.ds, c, in.cfg)
	return res, secondsSince(t0), err
}

// outcome is what one run of a workload reports.
type outcome struct {
	metrics   map[string]stat
	attempted int
	failed    int
	notes     []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// checkResult counts one attempted run of instance or job i and fails it
// when it errored or its result fingerprint differs from the first one
// seen for i (prints holds those, "" until seen).
func (o *outcome) checkResult(prints []string, i int, id string, res *engine.Result, err error) {
	o.attempted++
	if err != nil {
		o.fail("%s: %v", id, err)
		return
	}
	fp := fingerprint(res)
	if prints[i] == "" {
		prints[i] = fp
	} else if prints[i] != fp {
		o.fail("%s: result fingerprint %s differs from the first run's %s", id, fp, prints[i])
	}
}

// report fills in the end-to-end metrics both kinds of workload share:
// medians over passes, and quality and cost from one pass's results — they
// are deterministic per instance, which the fingerprint checks enforce, so
// any pass speaks for all of them. latencies[i] holds job i's latency in
// each pass; job_p50_s is the median job's median latency, so one slow pass
// moves it no more than it moves that job's median.
func (o *outcome) report(pps, bytesPerPair, allocsPerPair []float64, latencies [][]float64, results []*engine.Result) {
	perJob := make([]float64, len(latencies))
	for i, l := range latencies {
		perJob[i] = median(l)
	}
	var f1Sum, cost float64
	for _, r := range results {
		if r != nil {
			f1Sum += r.True.F1
			cost += r.Accounting.Cost
		}
	}
	o.metrics["pairs_per_s"] = summarize("1/s", pps)
	o.metrics["job_p50_s"] = summarize("s", perJob)
	o.metrics["alloc_bytes_per_pair"] = summarize("B", bytesPerPair)
	o.metrics["allocs_per_pair"] = summarize("count", allocsPerPair)
	o.metrics["f1"] = single("%", f1Sum/float64(len(results)))
	o.metrics["crowd_cost_usd"] = single("USD", cost)
}

// memCounters reads the allocation counters a pass is charged with.
func memCounters() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// timedPipeline is the closed loop of the pipeline workloads: one caller
// runs the instances back to back (the engine parallelises internally up
// to GOMAXPROCS — that is the program, not the generator). One untimed
// warm-up instance, then whole passes over the population until `seconds`
// have been measured; every timing is the median over passes.
func timedPipeline(insts []*instance, order []int, seconds float64, o *outcome) {
	prints := make([]string, len(insts))
	check := func(i int, res *engine.Result, err error) { o.checkResult(prints, i, insts[i].id, res, err) }

	res, _, err := runInstance(insts[order[0]])
	check(order[0], res, err)

	var totalPairs int64
	for _, in := range insts {
		totalPairs += in.pairs()
	}
	var pps, bytesPerPair, allocsPerPair []float64
	latencies := make([][]float64, len(insts))
	results := make([]*engine.Result, len(insts))
	measured := 0.0
	for measured < seconds {
		runtime.GC()
		b0, n0 := memCounters()
		wall := 0.0
		errs := make([]error, len(insts))
		for _, i := range order {
			var dt float64
			results[i], dt, errs[i] = runInstance(insts[i])
			wall += dt
			latencies[i] = append(latencies[i], dt)
		}
		b1, n1 := memCounters()
		measured += wall
		pps = append(pps, float64(totalPairs)/wall)
		bytesPerPair = append(bytesPerPair, float64(b1-b0)/float64(totalPairs))
		allocsPerPair = append(allocsPerPair, float64(n1-n0)/float64(totalPairs))
		for i := range insts {
			check(i, results[i], errs[i])
		}
	}
	o.report(pps, bytesPerPair, allocsPerPair, latencies, results)
	o.notes = append(o.notes, fmt.Sprintf("passes: %d of %d instances, %d pairs per pass, %.1f s measured",
		len(pps), len(insts), totalPairs, measured))
}

// tracedPipeline is the traced run of a pipeline workload: each instance
// runs once untraced (the reference for the output check and the tracing
// overhead) and once as a staged replay with spans; the first instance in
// run order then feeds the standalone probes.
func tracedPipeline(insts []*instance, order []int, seed int64, tiny bool, tr *tracer, o *outcome, m map[string]float64) {
	var cartesian, umbrella, scanPairs int64
	var scanApply float64
	var truthMatches, keptMatches int
	if _, _, err := runInstance(insts[order[0]]); err != nil { // warm-up, as in the timed run
		o.fail("%s: %v", insts[order[0]].id, err)
	}
	for n, i := range order {
		in := insts[i]
		o.attempted++
		tasks := int64(0)
		if in.shardStats != nil {
			tasks = -in.shardStats.Dispatched.Load()
		}
		res, dt, err := runInstance(in)
		if err != nil {
			o.fail("%s: %v", in.id, err)
			continue
		}
		if in.shardStats != nil {
			tasks += in.shardStats.Dispatched.Load()
		}
		st, err := stagedReplay(tr, in, i)
		if err == nil {
			err = checkStaged(in, st, res)
		}
		if err != nil {
			o.fail("%v", err)
			continue
		}
		m["trace.untraced_s"] += dt
		m["blocker.runs"]++
		m["blocker.shard_tasks"] += float64(tasks)
		if tasks > 0 {
			m["blocker.indexed_runs"]++
		} else if st.blk.Triggered {
			scanPairs += in.pairs()
			scanApply += st.applyS
		}
		cartesian += in.pairs()
		umbrella += int64(len(st.C))
		truthMatches += in.ds.Truth.NumMatches()
		keptMatches += in.ds.Truth.CountMatchesIn(st.C)
		m["active.iterations"] += float64(len(st.match.Trace.Confidence))
		m["estimator.labels"] += float64(st.est.LabelsUsed)
		m["locator.difficult_pairs"] += float64(len(st.loc.DifficultIdx))
		m["crowd.questions"] += float64(st.acct.Pairs)
		m["crowd.answers"] += float64(st.answers)
		if n == 0 {
			_, bytes := timedAlloc(func() { feature.NewExtractor(in.ds) })
			m["feature.extractor_alloc_bytes"] = float64(bytes)
			if err := standaloneProbes(in, st, seed, tiny, m); err != nil {
				o.fail("%s: probes: %v", in.id, err)
			}
		}
	}
	for metric, spanName := range map[string]string{
		"trace.staged_s":            "instance",
		"feature.extractor_build_s": "feature.extractor_build",
		"blocker.run_s":             "blocker.run",
		"blocker.learn_s":           "blocker.learn",
		"blocker.apply_s":           "blocker.apply",
		"feature.vectors_s":         "feature.vectors",
		"matcher.run_s":             "matcher.run",
		"estimator.estimate_s":      "estimator.estimate",
		"locator.locate_s":          "locator.locate",
		"crowd.wait_s":              "crowd.answer",
	} {
		m[metric] = tr.total(spanName)
	}
	if m["trace.untraced_s"] > 0 {
		m["trace.overhead_frac"] = m["trace.staged_s"]/m["trace.untraced_s"] - 1
	}
	if scanApply > 0 {
		m["blocker.scan_pairs_per_s"] = float64(scanPairs) / scanApply
	}
	m["blocker.umbrella_pairs"] = float64(umbrella)
	if umbrella > 0 {
		m["blocker.reduction_ratio"] = float64(cartesian) / float64(umbrella)
		m["feature.vectors_ns_per_pair"] = m["feature.vectors_s"] * 1e9 / float64(umbrella)
	}
	if truthMatches > 0 {
		m["blocker.recall"] = float64(keptMatches) / float64(truthMatches)
	}
}

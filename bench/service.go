package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/runsvc"
)

// svcPass is what one pass of the service workload measured.
type svcPass struct {
	wall      float64   // submit phase wall time, seconds
	latencies []float64 // submit→terminal per job, seconds
	resumes   []float64 // Resume→done per resumed job, seconds
	results   []*engine.Result
	ids       []string
	metrics   runsvc.Metrics // first manager, after the submit phase
	replayed  int64          // bytes the resuming manager replayed
	repaid    int            // crowd answers paid again on resume (must be 0)
	diskBytes int64          // journal directory size after the pass
	errs      []error
}

// newManager starts the service under test. dir == "" runs it without a
// journal (the traced run's comparison pass).
func newManager(dir string) (*runsvc.Manager, error) {
	opts := runsvc.Options{Workers: svcWorkers}
	if dir != "" {
		opts.JournalDir = dir
		opts.SnapshotEvery = 1
	}
	//corlint:allow det-time — the service under test stamps operator-facing times into its journal; the benchmark reads only Results and counters back
	return runsvc.NewManager(opts)
}

// submitAndWait is one closed-loop client request: submit the job, wait for
// its terminal state. With a tracer it follows the job's event stream
// instead and records queued→running→each checkpoint→terminal spans.
func submitAndWait(m *runsvc.Manager, meta runsvc.Meta, tr *tracer, inst int) (*runsvc.Job, float64, error) {
	t0 := now()
	j, err := m.Submit(runsvc.Spec{Meta: &meta})
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		traceJob(tr, j, t0, inst)
	}
	_, err = j.Wait()
	dt := secondsSince(t0)
	if err == nil && j.State() != runsvc.StateDone {
		err = fmt.Errorf("job %s ended %s", j.ID, j.State())
	}
	return j, dt, err
}

// traceJob turns the job's event stream into spans: runsvc.job covers
// submit→terminal, with runsvc.queue_wait (queued→running) and one
// runsvc.phase span per checkpoint interval as children. Events carry no
// times, so each is stamped when the client receives it.
func traceJob(tr *tracer, j *runsvc.Job, submitted time.Time, inst int) {
	type interval struct {
		name       string
		start, end time.Time
	}
	var children []interval
	events, cancel := j.Subscribe()
	defer cancel()
	last := submitted
	running := false
	for e := range events {
		t := now()
		switch {
		case e.Kind == "state" && e.State == runsvc.StateRunning:
			children = append(children, interval{"runsvc.queue_wait", last, t})
			last, running = t, true
		case e.Kind == "checkpoint" && running:
			children = append(children, interval{"runsvc.phase." + e.Phase, last, t})
			last = t
		case e.Kind == "state" && e.State.Terminal() && running:
			children = append(children, interval{"runsvc.finish", last, t})
			last = t
		}
	}
	root := tr.add("runsvc.job", submitted, last, -1, inst)
	for _, c := range children {
		tr.add(c.name, c.start, c.end, root, inst)
	}
}

// runSvcPass runs the service workload once: warm-up jobs, then the
// population submitted by svcWorkers closed-loop clients, then (journaled
// only) a fresh manager on the same directory resuming the first `resumes`
// jobs one at a time — the process-restart path.
func runSvcPass(dir string, seeds []int64, order []int, resumes int, tr *tracer) (*svcPass, error) {
	m, err := newManager(dir)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			m.Close()
		}
	}()
	if err := warmUp(m, seeds, order); err != nil {
		return nil, err
	}
	before := m.Metrics()

	p := &svcPass{
		latencies: make([]float64, len(seeds)),
		results:   make([]*engine.Result, len(seeds)),
		ids:       make([]string, len(seeds)),
		errs:      make([]error, len(seeds)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := now()
	for c := 0; c < svcWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) {
					return
				}
				i := order[n]
				j, dt, err := submitAndWait(m, svcMeta(seeds[i]), tr, i)
				p.latencies[i], p.errs[i] = dt, err
				if j != nil {
					p.ids[i], p.results[i] = j.ID, j.Result()
				}
			}
		}()
	}
	wg.Wait()
	p.wall = secondsSince(t0)
	p.metrics = m.Metrics()
	p.metrics.BytesJournaled -= before.BytesJournaled
	p.metrics.SnapshotBytes -= before.SnapshotBytes
	p.metrics.SnapshotsWritten -= before.SnapshotsWritten
	m.Close()
	closed = true
	if dir == "" {
		return p, nil
	}

	m2, err := newManager(dir)
	if err != nil {
		return nil, err
	}
	defer m2.Close()
	for n := 0; n < resumes && n < len(order); n++ {
		i := order[n]
		if p.errs[i] != nil {
			continue
		}
		t0 := now()
		j, err := m2.Resume(p.ids[i])
		var res *engine.Result
		if err == nil {
			res, err = j.Wait()
		}
		p.resumes = append(p.resumes, secondsSince(t0))
		switch {
		case err != nil:
			p.errs[i] = fmt.Errorf("resume %s: %w", p.ids[i], err)
		case fingerprint(res) != fingerprint(p.results[i]):
			p.errs[i] = fmt.Errorf("resume %s: result differs from the original run", p.ids[i])
		default:
			p.repaid += res.Accounting.Answers - p.results[i].Accounting.Answers
		}
	}
	p.replayed = m2.Metrics().BytesReplayed
	p.diskBytes, err = dirSize(dir)
	return p, err
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// svcSetup is the service workload's set-up: a journal directory, a manager
// on it, the warm-up jobs, shutdown.
func svcSetup(root string, seeds []int64, order []int) error {
	dir, err := os.MkdirTemp(root, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := newManager(dir)
	if err != nil {
		return err
	}
	defer m.Close()
	return warmUp(m, seeds, order)
}

// warmUp runs the first svcWarmup jobs in run order, untimed.
func warmUp(m *runsvc.Manager, seeds []int64, order []int) error {
	for i := 0; i < svcWarmup && i < len(order); i++ {
		if _, _, err := submitAndWait(m, svcMeta(seeds[order[i]]), nil, 0); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}
	return nil
}

// svcJobPairs is |A×B| of one service job (every job shares the dataset
// recipe; only crowd and engine seeds differ).
func svcJobPairs() (int64, error) {
	spec, err := runsvc.BuildSpec(svcMeta(1))
	if err != nil {
		return 0, err
	}
	return spec.Dataset.CartesianSize(), nil
}

// check folds a pass's per-job errors into the outcome and verifies that
// every job produced the result the first pass saw for it.
func (p *svcPass) check(o *outcome, prints []string) {
	for i, err := range p.errs {
		o.checkResult(prints, i, "job "+p.ids[i], p.results[i], err)
	}
	o.attempted += len(p.resumes)
	if p.repaid != 0 {
		o.fail("resumed jobs paid for %d crowd answers again", p.repaid)
	}
}

// timedService runs journaled passes, each in a fresh directory under
// root, until `seconds` have been measured.
func timedService(root string, seeds []int64, order []int, resumes int, seconds float64, o *outcome) error {
	pairs, err := svcJobPairs()
	if err != nil {
		return err
	}
	prints := make([]string, len(seeds))
	var pps, bytesPerPair, allocsPerPair []float64
	latencies := make([][]float64, len(seeds))
	var last *svcPass
	passes := 0
	for measured := 0.0; measured < seconds; passes++ {
		dir, err := os.MkdirTemp(root, "journal-")
		if err != nil {
			return err
		}
		runtime.GC()
		b0, n0 := memCounters()
		t0 := now()
		p, err := runSvcPass(dir, seeds, order, resumes, nil)
		measured += secondsSince(t0)
		b1, n1 := memCounters()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		p.check(o, prints)
		total := float64(pairs) * float64(len(seeds))
		pps = append(pps, total/p.wall)
		for i, l := range p.latencies {
			latencies[i] = append(latencies[i], l)
		}
		// The whole pass is charged (warm-up and resumes included): the
		// service's allocations cannot be split by phase from outside.
		bytesPerPair = append(bytesPerPair, float64(b1-b0)/total)
		allocsPerPair = append(allocsPerPair, float64(n1-n0)/total)
		last = p
	}
	o.report(pps, bytesPerPair, allocsPerPair, latencies, last.results)
	o.notes = append(o.notes, fmt.Sprintf("passes: %d of %d jobs (%d pairs each) + %d resumes, %d closed-loop clients, %d workers",
		passes, len(seeds), pairs, len(last.resumes), svcWorkers, svcWorkers))
	return nil
}

// untracedPasses caps the traced run's untraced reference passes.
const untracedPasses = 5

// tracedService runs one journaled pass with per-job spans, the same jobs
// once more without a journal, and reads the service's own counters.
func tracedService(root string, seeds []int64, order []int, resumes int, tr *tracer, o *outcome, m map[string]float64) error {
	dir, err := os.MkdirTemp(root, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := runSvcPass(dir, seeds, order, resumes, tr)
	if err != nil {
		return err
	}
	prints := make([]string, len(seeds))
	p.check(o, prints)
	plain, err := runSvcPass("", seeds, order, 0, nil)
	if err != nil {
		return err
	}
	plain.check(o, prints)
	// Untraced journaled passes: the reference for the tracing overhead,
	// and enough jobs that the p95 has ten samples beyond it.
	var walls, latencies []float64
	for n := 0; len(latencies) < 200 && n < untracedPasses; n++ {
		untraced, err := runSvcPass(dir+"-untraced", seeds, order, 0, nil)
		os.RemoveAll(dir + "-untraced")
		if err != nil {
			return err
		}
		untraced.check(o, prints)
		walls = append(walls, untraced.wall)
		latencies = append(latencies, untraced.latencies...)
	}
	untracedWall := median(walls)

	jobs := float64(len(seeds))
	var queue, exec []float64
	for i := range tr.spans {
		s := tr.spans[i]
		if s.Name == "runsvc.queue_wait" {
			queue = append(queue, float64(s.End-s.Start)/1e9)
			parent := tr.spans[s.Parent]
			exec = append(exec, float64(parent.End-s.End)/1e9)
		}
	}
	m["trace.staged_s"] = p.wall
	m["trace.untraced_s"] = untracedWall
	m["trace.overhead_frac"] = p.wall/untracedWall - 1
	m["runsvc.jobs_per_s"] = jobs / untracedWall
	m["runsvc.job_p95_s"] = percentile(latencies, 0.95)
	m["runsvc.queue_wait_s"] = median(queue)
	m["runsvc.exec_s"] = median(exec)
	m["runsvc.nojournal_job_p50_s"] = median(plain.latencies)
	m["runsvc.journal_overhead_s"] = median(latencies) - median(plain.latencies)
	m["runsvc.resume_p50_s"] = median(p.resumes)
	logBytes, snapBytes := float64(p.metrics.BytesJournaled), float64(p.metrics.SnapshotBytes)
	m["runsvc.journal_bytes_per_job"] = (logBytes + snapBytes) / jobs
	m["runsvc.log_bytes_per_job"] = logBytes / jobs
	m["runsvc.snapshots_per_job"] = float64(p.metrics.SnapshotsWritten) / jobs
	m["runsvc.snapshot_bytes_per_job"] = snapBytes / jobs
	m["runsvc.write_amplification"] = (logBytes + snapBytes) / logBytes
	m["runsvc.disk_bytes_per_job"] = float64(p.diskBytes) / (jobs + svcWarmup)
	if n := len(p.resumes); n > 0 {
		m["runsvc.replay_bytes_per_job"] = float64(p.replayed) / float64(n)
	}
	m["runsvc.resume_repaid_questions"] = float64(p.repaid)
	m["runsvc.submits_shed"] = float64(p.metrics.SubmitsShed)
	m["runsvc.jobs_failed"] = float64(p.metrics.JobsFailed)
	var answers, questions int
	for _, r := range p.results {
		if r != nil {
			answers += r.Accounting.Answers
			questions += r.Accounting.Pairs
		}
	}
	m["crowd.answers"] = float64(answers)
	m["crowd.questions"] = float64(questions)
	return nil
}

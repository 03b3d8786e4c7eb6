package shard

// Transport benchmarks: the shard wire path — per-job constants in
// /shard/load, lean JSON tasks, delta-encoded binary pair frames — one
// task per round trip against whole per-shard runs per round trip. Both
// hit the same pre-loaded worker over loopback HTTP and produce identical
// survivor streams, so the delta is pure transport. Each benchmark reports
// the wire bytes it moved per task as the custom metric "wire-B/task".

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/tree"
)

// transportFixture is the shared bench harness: one worker process
// (httptest), its job pre-loaded so no 412 handshake pollutes timing, the
// full task grid, and the per-shard runs the coordinator would claim.
type transportFixture struct {
	spec JobSpec
	srv  *httptest.Server
	grid []Task
	runs [][]Task // grid grouped by shard, each run Seq-ascending
}

var (
	transportOnce sync.Once
	transportFix  *transportFixture
	transportErr  error
)

// benchTransportFixture builds the fixture once per bench binary.
func benchTransportFixture(b *testing.B) *transportFixture {
	b.Helper()
	transportOnce.Do(func() {
		// A loose blocking rule (θ = 0.1) keeps the survivor stream dense —
		// many pairs per task relative to index-probe compute — which is the
		// communication-bound regime this benchmark isolates: the wire cost
		// of moving survivors dominates, exactly where the format matters.
		const (
			dataset = "restaurants"
			scale   = 0.3
			k       = 2
			theta   = 0.1
		)
		ds, err := datagen.DatasetFor(dataset, scale, 0)
		if err != nil {
			transportErr = err
			return
		}
		ex := feature.NewExtractor(ds)
		f := featureByKind(ex, "jaccard_w")
		if f < 0 {
			transportErr = fmt.Errorf("no jaccard_w feature in %s", dataset)
			return
		}
		spec := JobSpec{Job: "bench-transport", Dataset: dataset, Scale: scale,
			Shards: k, Feature: f, Theta: theta,
			Rules: []tree.Rule{leRule(f, theta)}}
		w := NewWorker()
		if err := w.Load(spec); err != nil {
			transportErr = err
			return
		}
		profA, _ := ex.Profiles(f)
		grid := BlockTasks(spec.Job, len(profA), k)
		runs := make([][]Task, k)
		for _, t := range grid {
			runs[t.Shard] = append(runs[t.Shard], t)
		}
		transportFix = &transportFixture{
			spec: spec,
			srv:  httptest.NewServer(w.Handler()),
			grid: grid,
			runs: runs,
		}
	})
	if transportErr != nil {
		b.Fatal(transportErr)
	}
	return transportFix
}

// BenchmarkTransportBinarySingle is the unbatched schedule: one POST per
// task, a one-frame stream per response. One op = one task.
func BenchmarkTransportBinarySingle(b *testing.B) {
	fx := benchTransportFixture(b)
	exec, stats := benchExecutor(fx)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(fx.grid)
		results, err := exec.Probe(fx.grid[j:j+1], 0)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(results[0])
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("binary single path decoded zero pairs — the workload is empty")
	}
	reportWire(b, stats)
}

// BenchmarkTransportBinaryBatched is the production path: whole per-shard
// runs per POST, responses consumed as length-prefixed binary frames. One
// op = one task (the batch round trips amortize across ops).
func BenchmarkTransportBinaryBatched(b *testing.B) {
	fx := benchTransportFixture(b)
	exec, stats := benchExecutor(fx)
	sink := 0
	b.ResetTimer()
	for done := 0; done < b.N; {
		for _, run := range fx.runs {
			if done >= b.N {
				break
			}
			batch := run
			if rem := b.N - done; len(batch) > rem {
				batch = batch[:rem]
			}
			results, err := exec.Probe(batch, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != len(batch) {
				b.Fatalf("batch answered %d of %d tasks", len(results), len(batch))
			}
			for _, pairs := range results {
				sink += len(pairs)
			}
			done += len(batch)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("batched path decoded zero pairs — the workload is empty")
	}
	reportWire(b, stats)
}

// benchExecutor builds a bound remote executor over the fixture's worker
// with fresh byte counters.
func benchExecutor(fx *transportFixture) (*RemoteExecutor, *Stats) {
	stats := &Stats{}
	exec := NewRemoteExecutor([]string{fx.srv.URL}, fx.spec, fx.srv.Client())
	exec.BindJob(JobParams{
		Job:     fx.spec.Job,
		Shards:  fx.spec.Shards,
		Feature: fx.spec.Feature,
		Theta:   fx.spec.Theta,
		Rules:   fx.spec.Rules,
		Stats:   stats,
	})
	return exec, stats
}

// reportWire emits the executor's request+response bytes per op.
func reportWire(b *testing.B, stats *Stats) {
	wire := stats.BytesSent.Load() + stats.BytesReceived.Load()
	b.ReportMetric(float64(wire)/float64(b.N), "wire-B/task")
}

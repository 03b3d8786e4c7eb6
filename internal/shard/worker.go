package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// JobSpec is everything a worker process needs to reconstruct a blocking
// job's inputs from nothing: the deterministic dataset recipe plus the
// shard count, probe list, and blocking rule set. Workers rebuild rather
// than receive the data — same spec, any process, byte-identical dataset —
// which is what makes a crash-restarted worker able to serve retried tasks
// correctly with no state transfer.
//
// Rules and the probes live here, not on Task: they are per-job constants,
// and hoisting them out of the ~(na/TaskBlockRows)×K probe requests is what
// shrinks a probe to a few dozen wire bytes (the lean task format).
type JobSpec struct {
	// Job identifies the job; probes carry the same id.
	Job string `json:"job"`
	// Dataset names a datagen profile (resolved via ProfileByName); Scale
	// and Noise parameterize it exactly as runsvc job metas do.
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale,omitempty"`
	Noise   float64 `json:"noise,omitempty"`
	// Shards is the job's partition width K.
	Shards int `json:"shards"`
	// Probes is the candidate union: feature indexes in the job's extractor
	// with their thresholds. A spec without it names a single probe through
	// Feature and Theta — the form every spec had before probe lists; Load
	// folds it into Probes, so the two spellings of one job are one spec.
	Probes  []Probe `json:"probes,omitempty"`
	Feature int     `json:"feature,omitempty"`
	Theta   float64 `json:"theta,omitempty"`
	// Rules is the blocking rule set every candidate is verified against.
	Rules []tree.Rule `json:"rules"`
}

// specEqual reports whether two specs describe the same job. JobSpec holds
// a rule slice, so it is not comparable with ==; the canonical JSON
// encodings are compared instead — the same bytes a conflicting /shard/load
// would have put on the wire.
func specEqual(a, b JobSpec) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// ErrUnknownJob reports a probe for a job id the worker has not loaded.
// Over HTTP it maps to 412 Precondition Failed, which tells the client to
// POST the job's spec to /shard/load and retry — the lazy-load handshake
// that lets a restarted worker rejoin mid-run.
var ErrUnknownJob = errors.New("shard: unknown job")

// workerJob is one loaded job: the rebuilt extractor plus lazily built
// per-shard indexes. Only the shards this worker is actually asked to
// probe are ever indexed, so per-process index memory is bounded by the
// shards routed here, not the whole table.
type workerJob struct {
	spec  JobSpec
	ex    *feature.Extractor
	kinds []simindex.Kind
	// profA[i] / profB[i] are probe i's table A and table B columns;
	// thetas[i] its threshold.
	profA, profB [][]*similarity.Profile
	thetas       []float64
	parts        [][]int32 // Partition(|B|, K), computed once at load
	// probers pools per-goroutine probe state across the job's requests.
	probers sync.Pool

	mu     sync.Mutex
	shards map[int]workerShard
}

// workerShard is one built shard: its index, and its rows as a run of the
// job's extractor.
type workerShard struct {
	ix  *Index
	run *feature.Run
}

// shard returns shard s, building it on first use. s is in range:
// validateTask checked it.
func (j *workerJob) shard(s int) workerShard {
	j.mu.Lock()
	defer j.mu.Unlock()
	sh, ok := j.shards[s]
	if !ok {
		sh.ix = BuildIndex(j.kinds, j.profB, j.parts[s])
		sh.run = sh.ix.NewRun(j.ex)
		j.shards[s] = sh
	}
	return sh
}

// WorkerStats counts a worker's activity; read by its /metrics endpoint.
type WorkerStats struct {
	// JobsLoaded counts /shard/load builds (idempotent re-loads excluded);
	// Probes counts tasks served; Batches counts answered /shard/probe
	// requests (each covering Probes/Batches tasks on average).
	JobsLoaded atomic.Int64
	Probes     atomic.Int64
	Batches    atomic.Int64
}

// Worker is a shard worker's in-process core: a registry of loaded jobs
// and the probe evaluator, served over HTTP by Handler. Safe for
// concurrent use.
type Worker struct {
	mu    sync.Mutex
	jobs  map[string]*workerJob
	stats WorkerStats
}

// NewWorker returns an empty worker.
func NewWorker() *Worker { return &Worker{jobs: make(map[string]*workerJob)} }

// Stats exposes the worker's counters.
func (w *Worker) Stats() *WorkerStats { return &w.stats }

// Load makes the job probeable: it regenerates the spec's dataset, builds
// the extractor, and precomputes the shard partition. Loading the same
// spec again is a no-op (retried loads are idempotent); reusing a job id
// with a different spec is an error — a spec is immutable for its job's
// lifetime, which is what keeps retried probes byte-identical.
func (w *Worker) Load(spec JobSpec) error {
	if spec.Job == "" {
		return errors.New("shard: job spec missing job id")
	}
	if spec.Shards < 1 {
		return fmt.Errorf("shard: job %q: shards must be >= 1", spec.Job)
	}
	if len(spec.Probes) > 0 && (spec.Feature != 0 || spec.Theta != 0) {
		return fmt.Errorf("shard: job %q: spec names both probes and a single feature/theta", spec.Job)
	}
	spec.Probes = oneProbe(spec.Probes, spec.Feature, spec.Theta)
	spec.Feature, spec.Theta = 0, 0
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.jobs[spec.Job]; ok {
		if !specEqual(prev.spec, spec) {
			return fmt.Errorf("shard: job %q already loaded with a different spec", spec.Job)
		}
		return nil
	}
	ds, err := datagen.DatasetFor(spec.Dataset, spec.Scale, spec.Noise)
	if err != nil {
		return err
	}
	ex := feature.NewExtractor(ds)
	kinds, err := probeKinds(ex, spec.Probes)
	if err == nil {
		err = checkRules(ex, spec.Rules)
	}
	if err != nil {
		return fmt.Errorf("shard: job %q: %w", spec.Job, err)
	}
	job := &workerJob{
		spec:   spec,
		ex:     ex,
		kinds:  kinds,
		parts:  Partition(ds.B.Len(), spec.Shards),
		shards: make(map[int]workerShard),
	}
	job.profA, job.profB, job.thetas = ProbeColumns(ex, spec.Probes)
	job.probers.New = func() any { return newProber(ex, spec.Rules, len(spec.Probes)) }
	w.jobs[spec.Job] = job
	w.stats.JobsLoaded.Add(1)
	return nil
}

// checkRules refuses a rule set that reads a feature the extractor does not
// have, as probeKinds does a probe: the verifier indexes its per-feature
// arrays by the predicates' features.
func checkRules(ex *feature.Extractor, rules []tree.Rule) error {
	for i, r := range rules {
		for _, p := range r.Preds {
			if p.Feature < 0 || p.Feature >= ex.NumFeatures() {
				return fmt.Errorf("rule %d: feature %d out of range [0,%d)", i, p.Feature, ex.NumFeatures())
			}
		}
	}
	return nil
}

// job looks up a loaded job, mapping a miss to ErrUnknownJob.
func (w *Worker) job(id string) (*workerJob, error) {
	w.mu.Lock()
	job, ok := w.jobs[id]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return job, nil
}

// validateTask checks a task's shape against its loaded job — the request-
// level errors the probe handler must surface before committing a status.
func validateTask(job *workerJob, t Task) error {
	if t.Shards != job.spec.Shards {
		return fmt.Errorf("shard: task wants %d shards, job %q has %d",
			t.Shards, t.Job, job.spec.Shards)
	}
	if t.Shard < 0 || t.Shard >= job.spec.Shards {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", t.Shard, job.spec.Shards)
	}
	if na := len(job.profA[0]); t.ALo < 0 || int(t.AHi) > na || t.ALo > t.AHi {
		return fmt.Errorf("shard: probe rows [%d,%d) out of range [0,%d)", t.ALo, t.AHi, na)
	}
	return nil
}

// probeLoaded runs one validated task through the shared probe loop
// (prober.run) — the same semantics as LocalExecutor, recomputed from the
// worker's own deterministic rebuild of the dataset.
func (w *Worker) probeLoaded(job *workerJob, t Task) []record.Pair {
	p := job.probers.Get().(*prober)
	sh := job.shard(t.Shard)
	out, _ := p.run(sh.ix, sh.run, job.profA, job.thetas, t)
	job.probers.Put(p)
	w.stats.Probes.Add(1)
	return out
}

// Handler serves the worker over HTTP:
//
//	GET  /healthz     → 200 "ok" once the process accepts work
//	GET  /metrics     → worker counters as JSON
//	POST /shard/load  → body JobSpec ("probes": [{feature, theta}, ...],
//	                    or a lone "feature"/"theta" for one probe); 200
//	                    when the job is probeable, 400 when Load refuses
//	                    it (the job stays unloaded)
//	POST /shard/probe → body [Task, ...] (one task is an array of one);
//	                    412 when the job is not loaded (client should
//	                    load + retry)
//
// A probe response is always a stream of the binary pair codec
// (application/x-corleone-pair-stream), whatever the request's Accept says:
// one length-prefixed pair block per task, in task order, flushed per task
// so a client can consume (and, after a mid-stream kill, keep) every
// completed prefix.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok") //nolint:errcheck // best-effort health reply
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		jobs := len(w.jobs)
		w.mu.Unlock()
		writeWorkerJSON(rw, http.StatusOK, map[string]int64{
			"jobs_loaded": int64(jobs),
			"loads_total": w.stats.JobsLoaded.Load(),
			"probes":      w.stats.Probes.Load(),
			"batches":     w.stats.Batches.Load(),
		})
	})
	mux.HandleFunc("/shard/load", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		spec, err := decodeSpec(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := w.Load(spec); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		writeWorkerJSON(rw, http.StatusOK, map[string]string{"status": "loaded"})
	})
	mux.HandleFunc("/shard/probe", w.serveProbe)
	return mux
}

// maxBody bounds the bytes read from a /shard/load or /shard/probe body.
const maxBody = 64 << 20

// decodeSpec decodes a /shard/load body.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	err := json.NewDecoder(io.LimitReader(body, maxBody)).Decode(&spec)
	return spec, err
}

// serveProbe answers a run of tasks as a per-task result stream. Every task
// is validated against its loaded job BEFORE the status line is committed —
// an unknown job surfaces as the 412 lazy-load handshake, and a malformed
// body or task (a bare task object included) as a 400. Past that point the
// stream writes one frame per task in order, flushing each, so a client
// that loses the connection mid-run keeps the delivered prefix and re-pays
// only the tail.
func (w *Worker) serveProbe(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var tasks []Task
	if err := json.Unmarshal(body, &tasks); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if len(tasks) == 0 {
		http.Error(rw, "shard: empty probe batch", http.StatusBadRequest)
		return
	}
	jobs := make([]*workerJob, len(tasks))
	for i, t := range tasks {
		job, err := w.job(t.Job)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusPreconditionFailed)
			return
		}
		if err := validateTask(job, t); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		jobs[i] = job
	}
	rw.Header().Set("Content-Type", PairStreamContentType)
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	w.stats.Batches.Add(1)
	var buf []byte
	for i, t := range tasks {
		buf = AppendPairs(buf[:0], w.probeLoaded(jobs[i], t))
		if err := WriteFrame(rw, buf); err != nil {
			return // client gone; it keeps what it already read
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// writeWorkerJSON writes v as a JSON response. Encode failure past the
// header write can only be a dead connection; the client's read error is
// the signal there.
func writeWorkerJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	//corlint:allow dur-ignored-write — status line already committed, so the error cannot become an HTTP failure; nothing durable is server-side and the peer's read error is the real signal
	json.NewEncoder(rw).Encode(v)
}

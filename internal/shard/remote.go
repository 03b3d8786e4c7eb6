package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/platform"
	"github.com/corleone-em/corleone/internal/record"
)

// httpStatusError is a non-2xx shard-worker response. It exposes
// HTTPStatus so platform.Retryable classifies it exactly like the
// marketplace transport's own errors: 5xx retries, 4xx does not.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("shard: HTTP %d: %s", e.status, e.msg)
}

func (e *httpStatusError) HTTPStatus() int { return e.status }

// RemoteExecutor runs shard tasks on worker processes over HTTP. Fault
// handling rides on the platform package's machinery: a per-endpoint
// circuit breaker fails fast on a dead worker, the coordinator's retry
// loop re-dispatches with an incremented attempt, and the executor routes
// attempt n of a shard's task to endpoint (shard+n) mod len(endpoints) —
// so consecutive retries fail over to different workers. Probes are
// idempotent by construction (a task is a pure function of its fields and
// the job's deterministic dataset), so a retry after an ambiguous failure
// — the crashed worker may or may not have finished computing — cannot
// double-emit or diverge; the idempotency key header makes the retry
// visible to logging middleware the same way platform's HIT creation is.
//
// Requests are JSON (a Task array or the JobSpec); probe responses are
// always the binary pair codec (codec.go). Probe ships a whole run of
// same-shard tasks — one task is a run of one — in one request and consumes
// the response as a stream of length-prefixed pair blocks, completing each
// task as its frame arrives. A stream torn mid-run returns the delivered
// prefix plus a retryable error; the coordinator re-runs only the tail.
type RemoteExecutor struct {
	endpoints []string
	client    *http.Client
	breakers  []platform.Breaker

	mu    sync.Mutex
	spec  JobSpec
	stats *Stats
}

// maxBatchTasks caps how many tasks one wire request carries. Probe
// splits longer runs into sequential requests — the byte budget per request
// stays bounded no matter how large a run the coordinator claims.
const maxBatchTasks = 64

// NewRemoteExecutor targets the given worker base URLs (e.g.
// "http://127.0.0.1:9301"). spec seeds the lazy-load handshake: only the
// dataset recipe (Dataset, Scale, Noise) must be filled in — the job id,
// shard count, probe list, and rules arrive via BindJob once the planner
// has chosen them. client nil means a default with a
// generous per-call timeout (a batch covers at most maxBatchTasks probes).
func NewRemoteExecutor(endpoints []string, spec JobSpec, client *http.Client) *RemoteExecutor {
	if client == nil {
		client = &http.Client{Timeout: 120 * time.Second}
	}
	return &RemoteExecutor{
		endpoints: endpoints,
		spec:      spec,
		client:    client,
		breakers:  make([]platform.Breaker, len(endpoints)),
	}
}

// BindJob implements JobBinder: it stamps the job's per-run constants into
// the /shard/load spec and wires the transport byte counters. The planner
// calls it exactly once per run, before any task flows.
func (e *RemoteExecutor) BindJob(p JobParams) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spec.Job = p.Job
	e.spec.Shards = p.Shards
	e.spec.Probes = oneProbe(p.Probes, p.Feature, p.Theta)
	e.spec.Feature, e.spec.Theta = 0, 0
	e.spec.Rules = p.Rules
	e.stats = p.Stats
}

// jobSpec snapshots the bound spec.
func (e *RemoteExecutor) jobSpec() JobSpec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spec
}

// countSent / countReceived feed the transport accounting when bound.
func (e *RemoteExecutor) countSent(n int) {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	if st != nil {
		st.BytesSent.Add(int64(n))
	}
}

func (e *RemoteExecutor) countReceived(n int) {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	if st != nil {
		st.BytesReceived.Add(int64(n))
	}
}

// route picks the endpoint index for a shard's attempt.
func (e *RemoteExecutor) route(shard, attempt int) (string, *platform.Breaker, error) {
	if len(e.endpoints) == 0 {
		return "", nil, errors.New("shard: remote executor has no endpoints")
	}
	i := (shard + attempt) % len(e.endpoints)
	return e.endpoints[i], &e.breakers[i], nil
}

// Probe implements Executor: one request per maxBatchTasks-sized chunk of
// the run, each consumed as a per-task result stream. All tasks in a run
// share a shard (the coordinator groups them), so the whole run routes to
// one endpoint, gated by that endpoint's breaker. A worker that answers 412
// — it is fresh, or was restarted after a crash — is handed the spec and
// probed again on the spot; the rebuild is deterministic, so the answer is
// unchanged. A 412 that survives the reload (the worker restarted again
// between the load and the retried probe) is returned as is; the
// coordinator counts it retryable, so its bounded attempt loop loads once
// more. On any failure the completed prefix is returned with the error; the
// caller retries only the rest.
func (e *RemoteExecutor) Probe(tasks []Task, attempt int) ([][]record.Pair, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	ep, br, err := e.route(tasks[0].Shard, attempt)
	if err != nil {
		return nil, err
	}
	results := make([][]record.Pair, 0, len(tasks))
	for len(tasks) > 0 {
		chunk := tasks
		if len(chunk) > maxBatchTasks {
			chunk = chunk[:maxBatchTasks]
		}
		tasks = tasks[len(chunk):]
		// The breaker's cooldown clock gates retry/failover timing only;
		// which pairs a probe returns is pinned by the deterministic shard
		// rebuild, and the chaos suite asserts bit-identical results under
		// faults.
		if err := br.Allow(); err != nil { //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
			return results, fmt.Errorf("%w (endpoint %s)", err, ep)
		}
		part, err := e.batchOnce(ep, chunk)
		if isUnloaded(err) && len(part) == 0 {
			if lerr := e.load(ep); lerr != nil {
				br.Record(lerr) //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
				return results, lerr
			}
			part, err = e.batchOnce(ep, chunk)
		}
		br.Record(err) //corlint:allow det-time — breaker wall clock steers failover pacing, never probe results
		results = append(results, part...)
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// isUnloaded reports the 412 lazy-load handshake.
func isUnloaded(err error) bool {
	var he *httpStatusError
	return errors.As(err, &he) && he.status == http.StatusPreconditionFailed
}

// countingReader counts bytes as the response is consumed, so a torn
// stream still accounts exactly what arrived.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// do POSTs v as JSON with the idempotency key and accept header set,
// counting the bytes both ways. A non-2xx answer becomes an
// httpStatusError carrying the status and (truncated) body; a 2xx body is
// handed to read along with its content type.
func (e *RemoteExecutor) do(url, idemKey, accept string, v any, read func(body io.Reader, ctype string) error) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", JSONContentType)
	req.Header.Set("Accept", accept)
	req.Header.Set("Idempotency-Key", idemKey)
	e.countSent(len(body))
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	//corlint:allow dur-ignored-write — response close after the body was drained (or tore); the reads already decided the outcome
	defer resp.Body.Close()
	cr := &countingReader{r: io.LimitReader(resp.Body, 1<<30)}
	defer func() { e.countReceived(int(cr.n)) }()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(cr, 4096))
		msg := string(data)
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return &httpStatusError{status: resp.StatusCode, msg: msg}
	}
	return read(cr, resp.Header.Get("Content-Type"))
}

// batchOnce ships one wire request and consumes its result stream. The
// returned slice holds one entry per *delivered* task, in task order; err
// is non-nil when the stream ended before every task answered.
func (e *RemoteExecutor) batchOnce(ep string, tasks []Task) (results [][]record.Pair, err error) {
	idem := fmt.Sprintf("%s-%d-%d", tasks[0].Job, tasks[0].Seq, tasks[len(tasks)-1].Seq)
	err = e.do(ep+"/shard/probe", idem, PairStreamContentType, tasks, func(body io.Reader, ctype string) error {
		if ctype != PairStreamContentType {
			return fmt.Errorf("shard: unexpected probe content type %q from %s", ctype, ep)
		}
		results, err = readBinaryStream(body, len(tasks), ep)
		return err
	})
	return results, err
}

// readBinaryStream consumes length-prefixed binary pair blocks.
func readBinaryStream(r io.Reader, want int, ep string) ([][]record.Pair, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	results := make([][]record.Pair, 0, want)
	var buf []byte
	for len(results) < want {
		frame, err := ReadFrame(br, buf)
		if err != nil {
			// io.EOF here means the worker died between frames; a torn
			// frame surfaces as a truncation error. Either way the prefix
			// already decoded is complete and the rest is retryable.
			return results, fmt.Errorf("shard: batch stream from %s ended after %d of %d tasks: %w",
				ep, len(results), want, err)
		}
		buf = frame[:0]
		pairs, err := DecodePairs(frame, nil)
		if err != nil {
			return results, fmt.Errorf("shard: bad batch frame from %s: %w", ep, err)
		}
		results = append(results, pairs)
	}
	return results, nil
}

// load hands the worker the bound job spec — everything it needs to
// rebuild the job deterministically. Every task of one job binds the same
// spec, so the resulting load is identical whichever task triggers it —
// which is what keeps the worker's spec-conflict check quiet across
// retries and failover.
func (e *RemoteExecutor) load(ep string) error {
	spec := e.jobSpec()
	if spec.Job == "" {
		return errors.New("shard: remote executor used before BindJob")
	}
	err := e.do(ep+"/shard/load", "load-"+spec.Job, JSONContentType, spec, func(body io.Reader, _ string) error {
		_, err := io.Copy(io.Discard, body)
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: load job %q on %s: %w", spec.Job, ep, err)
	}
	return nil
}

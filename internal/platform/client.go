package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
)

// DefaultTimeout bounds one marketplace round trip. A hung server must
// surface as an error the resilience stack can act on, never as an
// indefinitely blocked requester.
const DefaultTimeout = 10 * time.Second

// Client is the requester/worker HTTP client for the marketplace, with the
// transport-resilience stack of DESIGN.md §8: a timeout-bounded
// http.Client, capped-backoff retries on idempotent calls, and a
// consecutive-failure circuit breaker. Safe for concurrent use (WorkerPool
// shares one client across workers).
type Client struct {
	BaseURL string
	// HTTP is the underlying transport; NewClient installs a client with
	// DefaultTimeout. Overridable for tests and custom transports.
	HTTP *http.Client
	// Retry governs idempotent-call retries; nil disables them. Claim is
	// never retried — a duplicate claim would hand one worker two
	// assignments for the same HIT.
	Retry *RetryPolicy
	// Breaker fail-fasts every call during a detected outage; nil disables.
	Breaker *Breaker

	// Idempotency-key state: keys are unique per client instance AND per
	// HIT, so in-client retries of one CreateHIT dedupe server-side while
	// distinct HITs (and fresh clients in a resumed process) never collide
	// with keys from an earlier life of the same logical run.
	idemOnce sync.Once
	idemSalt string
	idemSeq  atomic.Int64
}

// clientSeq disambiguates clients created within one clock tick.
var clientSeq atomic.Int64

// NewClient targets the marketplace at baseURL with the default resilience
// stack: DefaultTimeout transport, wall-clock-seeded retry jitter, and a
// default breaker. Tests that need replayable retry traces overwrite Retry
// with an explicitly seeded policy.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: DefaultTimeout},
		Retry:   NewRetryPolicy(time.Now().UnixNano()),
		Breaker: &Breaker{},
	}
}

// nextIdemKey mints a fresh idempotency key. The salt is lazily drawn from
// the wall clock plus a process-wide counter: a resumed process gets a new
// salt, so its keys can never collide with — and silently reuse — HITs its
// previous life created for different questions.
func (c *Client) nextIdemKey() string {
	c.idemOnce.Do(func() {
		if c.idemSalt == "" {
			c.idemSalt = strconv.FormatInt(time.Now().UnixNano(), 36) +
				"." + strconv.FormatInt(clientSeq.Add(1), 36)
		}
	})
	return c.idemSalt + "." + strconv.FormatInt(c.idemSeq.Add(1), 36)
}

// attempt makes one breaker-guarded call.
func (c *Client) attempt(fn func() error) error {
	if c.Breaker != nil {
		if err := c.Breaker.allow(); err != nil {
			return err
		}
	}
	err := fn()
	if c.Breaker != nil {
		c.Breaker.record(err)
	}
	return err
}

// call routes fn through the breaker and, when the call is idempotent,
// the retry policy.
func (c *Client) call(idempotent bool, fn func() error) error {
	if !idempotent || c.Retry == nil {
		return c.attempt(fn)
	}
	return c.Retry.Do(func() error { return c.attempt(fn) })
}

func (c *Client) post(path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	resp, err := c.HTTP.Post(c.BaseURL+path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return errNoContent
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return &httpError{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func (c *Client) get(path string, out interface{}) error {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return &httpError{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

var errNoContent = fmt.Errorf("platform: no work available")

// CreateHIT posts a HIT and returns its id. When the HIT carries no
// IdemKey the client mints one, so transport-level retries of this call
// dedupe server-side instead of double-posting (and double-paying) the
// HIT. Callers that repost deliberately — straggler reissue — clear the
// key to get a genuinely new HIT.
func (c *Client) CreateHIT(h HIT) (string, error) {
	if h.IdemKey == "" {
		h.IdemKey = c.nextIdemKey()
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := c.call(true, func() error { return c.post("/hits", h, &out) }); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches a HIT's progress. GETs are idempotent and retried.
func (c *Client) Status(hitID string) (*HITStatus, error) {
	var st HITStatus
	if err := c.call(true, func() error { return c.get("/hits/"+hitID, &st) }); err != nil {
		return nil, err
	}
	return &st, nil
}

// Claim asks for the next assignment for the worker; nil with a nil error
// means no work. Never retried: the server records a claim before the
// response travels, so a retried claim after a dropped response would
// burn the worker's one claim slot on a HIT it never saw.
func (c *Client) Claim(worker string) (*Assignment, error) {
	var a Assignment
	err := c.call(false, func() error { return c.post("/assignments?worker="+worker, nil, &a) })
	if err == errNoContent {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &a, nil
}

// Submit sends a worker's answers. Idempotent — the server dedupes by
// assignment id and pays at most once — so it is safe to retry through a
// dropped response.
func (c *Client) Submit(assignmentID string, answers []bool) error {
	return c.call(true, func() error {
		return c.post("/assignments/"+assignmentID+"/submit", AnswerSet{Answers: answers}, nil)
	})
}

// WorkerPool runs n simulated workers against the marketplace, each
// answering with the supplied crowd model. Call Stop to shut down.
type WorkerPool struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartWorkers launches the pool. Each worker polls for assignments and
// answers every question via model (question IDs must encode the pair, as
// RemoteCrowd does).
func StartWorkers(client *Client, n int, model crowd.Crowd, poll time.Duration) *WorkerPool {
	if poll <= 0 {
		poll = time.Millisecond
	}
	wp := &WorkerPool{stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		wp.wg.Add(1)
		go func(worker string) {
			defer wp.wg.Done()
			for {
				select {
				case <-wp.stop:
					return
				default:
				}
				a, err := client.Claim(worker)
				if err != nil || a == nil {
					select {
					case <-wp.stop:
						return
					case <-time.After(poll):
					}
					continue
				}
				answers := make([]bool, len(a.HIT.Questions))
				for qi, q := range a.HIT.Questions {
					p, perr := DecodeQuestionID(q.ID)
					if perr == nil {
						answers[qi] = model.Answer(p)
					}
				}
				_ = client.Submit(a.ID, answers)
			}
		}(fmt.Sprintf("worker-%d", i))
	}
	return wp
}

// Stop shuts the pool down and waits for the workers to exit.
func (wp *WorkerPool) Stop() {
	close(wp.stop)
	wp.wg.Wait()
}

// EncodeQuestionID packs a pair into a question id ("a:b").
func EncodeQuestionID(p record.Pair) string {
	return strconv.Itoa(int(p.A)) + ":" + strconv.Itoa(int(p.B))
}

// DecodeQuestionID unpacks a question id produced by EncodeQuestionID.
func DecodeQuestionID(id string) (record.Pair, error) {
	var a, b int
	if _, err := fmt.Sscanf(id, "%d:%d", &a, &b); err != nil {
		return record.Pair{}, err
	}
	return record.P(a, b), nil
}

// RemoteCrowd adapts the marketplace to Corleone's crowd interfaces: each
// answer posts a single-question HIT with one assignment and blocks until
// a worker submits. (Corleone's Runner supplies batching, voting, and
// caching above this layer; the marketplace enforces the HIT shape.) It
// implements crowd.CrowdErr, so the Runner observes every transport
// failure and timeout as an error instead of a fabricated label.
type RemoteCrowd struct {
	Client      *Client
	Dataset     *record.Dataset
	RewardCents int
	// Poll is the status-poll interval (default 1ms — tests run the
	// marketplace in-process).
	Poll time.Duration
	// Timeout bounds one answer round trip, reissues included
	// (default 10s).
	Timeout time.Duration
	// ReissueAfter is the straggler deadline: a HIT still unanswered this
	// long after posting is reposted — the paper's abandoned-assignment
	// mitigation (a worker who claims a HIT and walks away would otherwise
	// block it forever). 0 selects Timeout/3; negative disables reissue.
	ReissueAfter time.Duration
	// MaxReissues bounds reposts per answer (0 selects 2). Each reissue is
	// a genuinely new HIT: if the straggler eventually answers too, both
	// workers are paid — the accounted cost of riding out abandonment.
	MaxReissues int
	// Cancel, when non-nil, aborts answering as soon as the channel
	// closes: no new HIT is posted and any in-flight status polling stops
	// immediately, rather than riding out Timeout. Wire it to the same
	// channel as engine.Config.Cancel so a canceled run stops paying the
	// marketplace promptly.
	Cancel <-chan struct{}
}

// AnswerErr implements crowd.CrowdErr over the HTTP marketplace. Failures
// are classified for the Runner's retry loop: crowd.ErrUnavailable wraps
// transport/marketplace errors (nothing was posted or paid),
// crowd.ErrTimeout means every posted HIT — the original and up to
// MaxReissues straggler reposts — went unanswered within Timeout, and
// crowd.ErrCanceled reports cancellation. It never fabricates an answer.
func (rc *RemoteCrowd) AnswerErr(p record.Pair) (bool, error) {
	if rc.canceled() {
		return false, crowd.ErrCanceled
	}
	poll := rc.Poll
	if poll <= 0 {
		poll = time.Millisecond
	}
	timeout := rc.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	reissueAfter := rc.ReissueAfter
	if reissueAfter == 0 {
		reissueAfter = timeout / 3
	}
	maxReissues := rc.MaxReissues
	if maxReissues <= 0 {
		maxReissues = 2
	}
	hit := HIT{
		Title:       "Do these records match?",
		Instruction: rc.Dataset.Instruction,
		Questions: []Question{{
			ID:      EncodeQuestionID(p),
			RecordA: tupleMap(rc.Dataset, rc.Dataset.A, int(p.A)),
			RecordB: tupleMap(rc.Dataset, rc.Dataset.B, int(p.B)),
		}},
		RewardCents:    rc.RewardCents,
		MaxAssignments: 1,
	}
	id, err := rc.Client.CreateHIT(hit)
	if err != nil {
		if rc.canceled() {
			return false, crowd.ErrCanceled
		}
		return false, fmt.Errorf("%w: create HIT: %v", crowd.ErrUnavailable, err)
	}
	ids := []string{id}
	start := time.Now()
	lastIssue := start
	for time.Since(start) < timeout {
		for _, hid := range ids {
			st, serr := rc.Client.Status(hid)
			if serr == nil && st.Complete && len(st.Results) > 0 && len(st.Results[0].Answers) > 0 {
				// First complete HIT wins; a straggler that answers later
				// is paid but ignored.
				return st.Results[0].Answers[0], nil
			}
		}
		if reissueAfter > 0 && len(ids) <= maxReissues && time.Since(lastIssue) >= reissueAfter {
			// Straggler: every posted HIT has sat past the deadline,
			// claimed-and-abandoned or starved. Repost with a fresh
			// idempotency key — a reissue is a new HIT by design, not a
			// retry of the old one.
			hit.IdemKey = ""
			if nid, rerr := rc.Client.CreateHIT(hit); rerr == nil {
				ids = append(ids, nid)
			}
			lastIssue = time.Now()
		}
		select {
		case <-rc.Cancel:
			return false, crowd.ErrCanceled
		case <-time.After(poll):
		}
	}
	return false, fmt.Errorf("%w: question %s unanswered after %v (%d HITs posted)",
		crowd.ErrTimeout, hit.Questions[0].ID, timeout, len(ids))
}

// Answer implements crowd.Crowd as a compatibility shim for callers that
// cannot observe errors; any failure degenerates to false. The Runner
// never takes this path — RemoteCrowd implements crowd.CrowdErr, so the
// Runner calls AnswerErr and treats failures as unsettled entries, and no
// fabricated label can enter the cache or the accounting.
func (rc *RemoteCrowd) Answer(p record.Pair) bool {
	a, err := rc.AnswerErr(p)
	return err == nil && a
}

var _ crowd.CrowdErr = (*RemoteCrowd)(nil)

func (rc *RemoteCrowd) canceled() bool {
	select {
	case <-rc.Cancel:
		return true
	default:
		return false
	}
}

func tupleMap(ds *record.Dataset, t *record.Table, row int) map[string]string {
	out := make(map[string]string, len(t.Schema))
	for i, attr := range t.Schema {
		out[attr.Name] = t.Rows[row][i]
	}
	return out
}

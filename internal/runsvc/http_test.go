package runsvc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
)

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) Status {
	t.Helper()
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func waitForState(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		st := decodeStatus(t, resp)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s, want %s (error %q)", id, st.State, want, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

func TestHTTPSubmitStatusEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP integration test in -short mode")
	}
	dir := t.TempDir()
	m, err := NewManager(Options{Workers: 2, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	// Bad requests first.
	resp := postJSON(t, srv.URL+"/jobs", Meta{Profile: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown profile: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if r, _ := http.Get(srv.URL + "/jobs/missing"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", r.StatusCode)
	}

	// Submit and follow to completion.
	resp = postJSON(t, srv.URL+"/jobs", testMeta(5, 0.15, 0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || !strings.HasPrefix(st.ID, "restaurants-") {
		t.Fatalf("submit returned status %+v", st)
	}
	final := waitForState(t, srv.URL, st.ID, StateDone)
	if final.Matches == 0 || final.Cost <= 0 {
		t.Fatalf("final status %+v has no result", final)
	}

	// The event stream replays history and terminates once the job is done.
	eresp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != StateDone {
		t.Fatalf("stream ended with %+v, want state/done", last)
	}

	// Listing includes the job; the journal listing shows its directory.
	lresp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET jobs: %v", err)
	}
	var list []Status
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job list %+v", list)
	}
	jresp, err := http.Get(srv.URL + "/journal")
	if err != nil {
		t.Fatalf("GET journal: %v", err)
	}
	var ids []string
	if err := json.NewDecoder(jresp.Body).Decode(&ids); err != nil {
		t.Fatalf("decode journal list: %v", err)
	}
	jresp.Body.Close()
	if len(ids) != 1 || ids[0] != st.ID {
		t.Fatalf("journal list %v", ids)
	}

	// Resume over HTTP: the finished job re-runs from its journal (every
	// label cached, so it costs nothing new) and lands done again.
	rresp := postJSON(t, srv.URL+"/jobs/"+st.ID+"/resume", nil)
	if rresp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: status %d, want 202", rresp.StatusCode)
	}
	rst := decodeStatus(t, rresp)
	if rst.ID != st.ID || !rst.Resumed {
		t.Fatalf("resume status %+v", rst)
	}
	waitForState(t, srv.URL, st.ID, StateDone)
}

func TestHTTPCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP integration test in -short mode")
	}
	m, err := NewManager(Options{Workers: 1})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/jobs", testMeta(3, 0.3, 0))
	st := decodeStatus(t, resp)
	waitForState(t, srv.URL, st.ID, StateRunning)

	cresp := postJSON(t, srv.URL+"/jobs/"+st.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, want 200", cresp.StatusCode)
	}
	cresp.Body.Close()

	j, _ := m.Job(st.ID)
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("canceled job never finished")
	}
	if j.State() != StateCanceled {
		t.Fatalf("state %s, want canceled", j.State())
	}

	if r := postJSON(t, srv.URL+"/jobs/missing/cancel", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", r.StatusCode)
	}
}

// TestHTTPOverload pins the 429 contract: a submit that lands on a full
// queue is rejected with 429 Too Many Requests and a Retry-After header,
// so well-behaved clients back off instead of treating overload as a
// permanent failure.
func TestHTTPOverload(t *testing.T) {
	// No workers and a one-slot queue: the second submit always bounces.
	m := &Manager{
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, 1),
		quit:  make(chan struct{}),
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	meta := Meta{Profile: "restaurants", Scale: 0.1, ErrorRate: 0.1, Seed: 1}
	if r := postJSON(t, srv.URL+"/jobs", meta); r.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", r.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/jobs", meta)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}

	// Oversized bodies are cut off with 413 before they can balloon
	// memory: well-formed JSON whose one string field overshoots the cap,
	// so the decoder is still hungry when MaxBytesReader slams the door.
	big := []byte(`{"profile":"` + strings.Repeat("x", maxSubmitBody+1) + `"}`)
	hr, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatalf("POST oversized body: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", hr.StatusCode)
	}
}

// TestHTTPSubmitRejectsOutOfRangeMeta: POST /jobs answers 400 to a Meta
// with an error rate outside [0, 1] or any other negative number — each of
// which used to run, as a crowd that flips every answer or as the field's
// default — and Spec.normalize, which a resumed job goes through, refuses
// the same Meta whether or not its dataset is already built. The bounds
// themselves are accepted.
func TestHTTPSubmitRejectsOutOfRangeMeta(t *testing.T) {
	m := &Manager{
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, 1),
		quit:  make(chan struct{}),
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	base := Meta{Profile: "restaurants", Scale: 0.05, Seed: 1}
	for _, c := range []struct {
		field string
		set   func(*Meta)
	}{
		{"error_rate", func(m *Meta) { m.ErrorRate = 3 }},
		{"error_rate", func(m *Meta) { m.ErrorRate = 1.0000001 }},
		{"error_rate", func(m *Meta) { m.ErrorRate = -0.1 }},
		{"scale", func(m *Meta) { m.Scale = -1 }},
		{"noise", func(m *Meta) { m.Noise = -0.5 }},
		{"budget", func(m *Meta) { m.Budget = -10 }},
		{"price", func(m *Meta) { m.Price = -0.01 }},
		{"max_iterations", func(m *Meta) { m.MaxIterations = -1 }},
		{"tb", func(m *Meta) { m.TB = -1 }},
		{"shards", func(m *Meta) { m.Shards = -3 }},
		{"shard_workers", func(m *Meta) { m.ShardWorkers = -2 }},
	} {
		meta := base
		c.set(&meta)
		resp := postJSON(t, srv.URL+"/jobs", meta)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.field) {
			t.Errorf("%+v: status %d %q, want 400 naming %s", meta, resp.StatusCode, body, c.field)
		}
		for _, spec := range []Spec{
			{Meta: &meta},
			{Meta: &meta, Dataset: &record.Dataset{}, Crowd: &crowd.Oracle{}},
		} {
			if err := spec.normalize(); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%+v: normalize = %v, want an error naming %s", meta, err, c.field)
			}
		}
	}
	if n := len(m.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted from out-of-range submits", n)
	}

	for _, rate := range []float64{0, 1} {
		meta := base
		meta.ErrorRate = rate
		if err := meta.validate(); err != nil {
			t.Errorf("error_rate %v refused: %v", rate, err)
		}
	}
	if r := postJSON(t, srv.URL+"/jobs", base); r.StatusCode != http.StatusAccepted {
		t.Fatalf("in-range submit: status %d, want 202", r.StatusCode)
	}
}

// TestHTTPHealthzDraining: /healthz flips from 200 "ok" to 503 "draining"
// once Drain begins, and post-drain submits get 503 + Retry-After — the
// load balancer signal and the client signal stay consistent.
func TestHTTPHealthzDraining(t *testing.T) {
	m, err := NewManager(Options{Workers: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	readBody := func(r *http.Response) string {
		t.Helper()
		defer r.Body.Close()
		var sb strings.Builder
		if _, err := bufio.NewReader(r.Body).WriteTo(&sb); err != nil {
			t.Fatalf("read body: %v", err)
		}
		return strings.TrimSpace(sb.String())
	}

	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	if body := readBody(r); r.StatusCode != http.StatusOK || body != "ok" {
		t.Fatalf("healthz before drain: %d %q, want 200 ok", r.StatusCode, body)
	}

	m.Drain()

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	if body := readBody(r); r.StatusCode != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("healthz after drain: %d %q, want 503 draining", r.StatusCode, body)
	}

	meta := Meta{Profile: "restaurants", Scale: 0.1, ErrorRate: 0.1, Seed: 1}
	resp := postJSON(t, srv.URL+"/jobs", meta)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("draining rejection missing Retry-After header")
	}
}

package runsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// maxSubmitBody caps a POST /jobs request body. A Meta is a few hundred
// bytes; anything near the cap is malformed or hostile and is rejected
// with 413 before it can balloon memory.
const maxSubmitBody = 1 << 20

// retryAfterSeconds is the backoff hint sent with every overload
// rejection (429/503 + Retry-After).
const retryAfterSeconds = "5"

// Handler is the HTTP control surface over a Manager:
//
//	POST /jobs                submit a job (body: Meta) -> Status
//	GET  /jobs                list job statuses
//	GET  /jobs/{id}           one job's status
//	POST /jobs/{id}/cancel    request cancellation
//	POST /jobs/{id}/resume    resume a journaled job in this process
//	GET  /jobs/{id}/events    NDJSON event stream (history, then live)
//	GET  /journal             list journaled job ids (including past runs)
//	GET  /healthz             200 "ok" while the service accepts work;
//	                          503 "draining" once Manager.Drain begins
//	GET  /metrics             Metrics snapshot as JSON
//
// Admission-control contract: overload is signaled, never hidden. A full
// queue or exhausted journal disk budget rejects the submit (or resume)
// with 429 Too Many Requests and a Retry-After header — the caller should
// back off and retry the identical request. A draining manager rejects
// with 503 Service Unavailable + Retry-After, and /healthz flips to 503
// "draining" so load balancers stop routing here before the pool stops.
// Oversized submit bodies get 413; a body that is not one JSON Meta, or
// holds a number out of range — an error_rate outside [0, 1], any other
// negative number — gets 400 before any dataset is built.
//
// Styled after internal/platform: stdlib mux, JSON in/out, no deps.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if m.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining") //nolint:errcheck // best-effort health reply
			return
		}
		fmt.Fprintln(w, "ok") //nolint:errcheck // best-effort health reply
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		writeJSON(w, http.StatusOK, m.Metrics())
	})

	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var meta Meta
			body := http.MaxBytesReader(w, r.Body, maxSubmitBody)
			if err := json.NewDecoder(body).Decode(&meta); err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					httpError(w, http.StatusRequestEntityTooLarge,
						"request body exceeds %d bytes", tooBig.Limit)
					return
				}
				httpError(w, http.StatusBadRequest, "decode meta: %v", err)
				return
			}
			spec, err := BuildSpec(meta)
			if err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			j, err := m.Submit(spec)
			if err != nil {
				overloadError(w, err)
				return
			}
			writeJSON(w, http.StatusAccepted, j.Status())
		case http.MethodGet:
			jobs := m.Jobs()
			out := make([]Status, len(jobs))
			for i, j := range jobs {
				out[i] = j.Status()
			}
			writeJSON(w, http.StatusOK, out)
		default:
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	})

	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
		id, action, _ := strings.Cut(rest, "/")
		if id == "" {
			httpError(w, http.StatusBadRequest, "missing job id")
			return
		}
		switch {
		case action == "" && r.Method == http.MethodGet:
			j, ok := m.Job(id)
			if !ok {
				httpError(w, http.StatusNotFound, "unknown job %s", id)
				return
			}
			writeJSON(w, http.StatusOK, j.Status())
		case action == "cancel" && r.Method == http.MethodPost:
			if err := m.Cancel(id); err != nil {
				httpError(w, http.StatusNotFound, "%v", err)
				return
			}
			j, _ := m.Job(id)
			writeJSON(w, http.StatusOK, j.Status())
		case action == "resume" && r.Method == http.MethodPost:
			j, err := m.Resume(id)
			if err != nil {
				if isOverload(err) {
					overloadError(w, err)
					return
				}
				httpError(w, http.StatusConflict, "%v", err)
				return
			}
			writeJSON(w, http.StatusAccepted, j.Status())
		case action == "events" && r.Method == http.MethodGet:
			j, ok := m.Job(id)
			if !ok {
				httpError(w, http.StatusNotFound, "unknown job %s", id)
				return
			}
			streamEvents(w, r, j)
		default:
			httpError(w, http.StatusMethodNotAllowed, "no %s %s", r.Method, r.URL.Path)
		}
	})

	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		if m.Store() == nil {
			writeJSON(w, http.StatusOK, []string{})
			return
		}
		ids := m.Store().List()
		if ids == nil {
			ids = []string{}
		}
		writeJSON(w, http.StatusOK, ids)
	})

	return mux
}

// streamEvents writes the job's event stream as NDJSON: the full history
// first, then live events until the job reaches a terminal state or the
// client goes away.
func streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	ch, cancel := j.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//corlint:allow dur-ignored-write — HTTP response body, not journal state; a failure means the client hung up and there is no one to report it to
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// isOverload reports whether err is one of the admission-control
// sentinels the overload contract covers.
func isOverload(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDiskBudget) || errors.Is(err, ErrDraining)
}

// overloadError maps an admission rejection to its HTTP shape: transient
// back-pressure (full queue, disk budget) is 429 Too Many Requests,
// shutdown (draining) is 503 Service Unavailable, anything else falls
// back to plain 503. Every overload reply carries Retry-After — the
// caller's contract is to back off and retry the identical request.
func overloadError(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDiskBudget):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	httpError(w, code, "%v", err)
}

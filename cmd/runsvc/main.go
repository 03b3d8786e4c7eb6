// Command runsvc runs the durable run-orchestration service: an HTTP
// control surface over a pool of concurrent Corleone jobs, each journaled
// to disk so a killed process resumes without re-paying the crowd.
//
// Usage:
//
//	runsvc -addr :8090 -workers 4 -journal ./journal
//	runsvc -max-journal-bytes 1073741824
//
// API:
//
//	POST /jobs                submit a job (JSON body: profile, scale,
//	                          error_rate, seed, budget, shards, ...)
//	GET  /jobs                list job statuses
//	GET  /jobs/{id}           one job's status
//	POST /jobs/{id}/cancel    request cancellation
//	POST /jobs/{id}/resume    resume a journaled job
//	GET  /jobs/{id}/events    NDJSON progress stream (history, then live)
//	GET  /journal             list journaled job ids
//	GET  /healthz             liveness probe (503 "draining" during drain)
//	GET  /metrics             job/shard/journal/snapshot counters
//
// Overload is signaled, never hidden: a full queue or an exhausted
// -max-journal-bytes budget rejects the submit with 429 Too Many Requests
// plus Retry-After; once draining begins, submits get 503 + Retry-After
// and /healthz flips to 503 so load balancers stop routing here.
//
// Each job's journal is compacted once its log outgrows its newest
// snapshot: a checksummed snapshot generation replaces the log prefix, so
// resume reads one snapshot and a log of about its size rather than the
// run's whole history. A corrupt newest generation falls back to the
// previous one automatically (DESIGN.md §3d).
//
// On startup the service lists any journaled jobs left unfinished by a
// previous process (no terminal status.json) so the operator can POST
// /jobs/{id}/resume to pick them up.
//
// SIGINT/SIGTERM shut down gracefully: running jobs are canceled and stop
// at their next crowd batch with every paid label flushed to the journal,
// then the listener closes. A fresh process resumes the drained jobs by id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/corleone-em/corleone/internal/runsvc"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "runsvc:", err)
		os.Exit(1)
	}
}

// run parses flags, starts the manager, and serves until a termination
// signal arrives. sigs overrides the OS signal source in tests; nil means
// real SIGINT/SIGTERM.
func run(args []string, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("runsvc", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	workers := fs.Int("workers", 4, "concurrent job executors")
	journal := fs.String("journal", "./journal", "journal root directory (empty = in-memory only)")
	maxJournal := fs.Int64("max-journal-bytes", 0, "shed new submissions once the journal root holds this many bytes (0 = unlimited; resumes are exempt)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := runsvc.NewManager(runsvc.Options{
		Workers:         *workers,
		JournalDir:      *journal,
		MaxJournalBytes: *maxJournal,
	})
	if err != nil {
		return err
	}

	for _, id := range unfinished(m.Store()) {
		fmt.Fprintf(os.Stderr, "runsvc: job %s has an unfinished journal; POST /jobs/%s/resume to continue it\n", id, id)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		m.Close()
		return err
	}
	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		sigs = ch
	}
	fmt.Fprintf(os.Stderr, "runsvc: %d executors, journal at %s, listening on %s\n",
		*workers, *journal, lis.Addr())
	return serve(lis, runsvc.Handler(m), m, sigs)
}

// serve runs the HTTP server on lis until a signal arrives, then shuts
// down gracefully: the manager drains first — running jobs are canceled
// and finish at their next crowd batch with journals flushed — and the
// listener closes once in-flight requests complete.
func serve(lis net.Listener, h http.Handler, m *runsvc.Manager, sigs <-chan os.Signal) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	select {
	case err := <-errc:
		m.Drain()
		return err // listener failed before any signal
	case <-sigs:
		fmt.Fprintln(os.Stderr, "runsvc: signal received; draining jobs")
	}
	m.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// unfinished lists journaled jobs a previous process left without a clean
// finish — no terminal status, or one that says crashed or canceled. These
// are the resume candidates announced at startup.
func unfinished(store *runsvc.Store) []string {
	if store == nil {
		return nil
	}
	var out []string
	for _, id := range store.List() {
		jl, err := store.Open(id)
		if err != nil {
			continue
		}
		rec, finished := jl.ReadStatus()
		jl.Close()
		if !finished || rec.State == runsvc.StateCrashed || rec.State == runsvc.StateCanceled {
			out = append(out, id)
		}
	}
	return out
}

// Command shardworker runs one shard-worker process: an HTTP service that
// lazily rebuilds blocking jobs from their deterministic specs and answers
// shard probe tasks for a coordinating runsvc (or any shard.RemoteExecutor).
// Start several, point runsvc's -shard-endpoints at them, and blocking
// fans out across processes; kill one mid-run and the coordinator's
// retries fail over while the restarted worker rejoins via the lazy-load
// handshake — no state transfer, byte-identical output.
//
// Usage:
//
//	shardworker -addr :9301
//
// API:
//
//	GET  /healthz     liveness probe
//	GET  /metrics     worker counters (jobs loaded, probes, batches)
//	POST /shard/load  make a job spec probeable (idempotent)
//	POST /shard/probe one shard task or a [task, ...] batch; 412 until the
//	                  job is loaded. Responses are the compact binary pair
//	                  codec: one block for a task, a length-prefixed frame
//	                  stream for a batch.
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
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

	"github.com/corleone-em/corleone/internal/shard"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(1)
	}
}

// run parses flags, binds the listener, and serves until a termination
// signal arrives. sigs overrides the OS signal source in tests; nil means
// real SIGINT/SIGTERM.
func run(args []string, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("shardworker", flag.ContinueOnError)
	addr := fs.String("addr", ":9301", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		sigs = ch
	}
	w := shard.NewWorker()
	fmt.Fprintf(os.Stderr, "shardworker: listening on %s\n", lis.Addr())
	return serve(lis, w.Handler(), sigs)
}

// serve runs the HTTP server on lis until a signal arrives, then shuts
// down gracefully: the listener closes immediately (no new work is
// accepted) while in-flight probes finish and their responses flush.
func serve(lis net.Listener, h http.Handler, sigs <-chan os.Signal) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-sigs:
	}
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

// Command platform runs the Mechanical-Turk-shaped crowd marketplace as a
// standalone HTTP service, optionally with simulated workers attached —
// the substrate a production Corleone deployment would post HITs to.
//
// Usage:
//
//	platform -addr :8080                      # serve the marketplace
//	platform -addr :8080 -workers 4 -error 0.05 -dataset Restaurants
//	                                          # ...with simulated workers
//	                                          # answering from the named
//	                                          # synthetic dataset's truth
//
// API:
//
//	POST /hits                     create a HIT (JSON body)
//	GET  /hits/{id}                HIT status and collected answers
//	POST /assignments?worker=w     claim the next assignment
//	POST /assignments/{id}/submit  submit answers {"answers":[true,...]}
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/platform"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulated workers to attach (0 = none)")
	errRate := flag.Float64("error", 0.05, "simulated worker error rate")
	dataset := flag.String("dataset", "Restaurants", "dataset whose gold standard powers the simulated workers")
	scale := flag.Float64("scale", 0.5, "dataset scale for the simulated workers")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	server := platform.NewServer()

	if *workers > 0 {
		base, ok := datagen.ProfileByName(*dataset)
		if !ok {
			fmt.Fprintf(os.Stderr, "platform: unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		ds := datagen.Generate(datagen.Scaled(base, *scale))
		model := crowd.NewSimulated(ds.Truth, *errRate, *seed)
		// The workers poll through the HTTP API like external processes
		// would, keeping the service honest.
		client := platform.NewClient("http://localhost" + normalizeAddr(*addr))
		// Fire and forget: the worker pool lives for the whole process, and
		// main blocks in ListenAndServe below.
		go func() {
			// Give the listener a moment to come up before polling starts.
			time.Sleep(200 * time.Millisecond)
			platform.StartWorkers(client, *workers, model, 50*time.Millisecond)
		}()
		fmt.Fprintf(os.Stderr, "platform: %d simulated workers (%.0f%% error) answering from %s\n",
			*workers, 100**errRate, ds.Name)
	}

	fmt.Fprintf(os.Stderr, "platform: marketplace listening on %s\n", *addr)
	if err := http.ListenAndServe(*addr, server.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "platform:", err)
		os.Exit(1)
	}
}

func normalizeAddr(addr string) string {
	if addr != "" && addr[0] == ':' {
		return addr
	}
	// host:port given; strip host for the local client.
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[i:]
		}
	}
	return ":" + addr
}

package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/runsvc"
)

// TestGracefulShutdownDrainsJobs pins the SIGTERM path end-to-end: a job
// submitted over HTTP is in flight when the signal lands; serve drains the
// manager — the job reaches a terminal state with its journal on disk —
// and then returns nil with the listener closed to new connections.
func TestGracefulShutdownDrainsJobs(t *testing.T) {
	dir := t.TempDir()
	m, err := runsvc.NewManager(runsvc.Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(lis, runsvc.Handler(m), m, sigs) }()
	base := "http://" + lis.Addr().String()

	meta := runsvc.Meta{Profile: "restaurants", Scale: 0.3, ErrorRate: 0.05, Seed: 3}
	body, _ := json.Marshal(meta)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st runsvc.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if st.ID == "" {
		t.Fatalf("submit returned %+v", st)
	}
	j, ok := m.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not registered", st.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == runsvc.StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after signal, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not return after signal")
	}

	if s := j.State(); !s.Terminal() {
		t.Fatalf("after drain, job state = %s, want terminal", s)
	}
	// The journaled spec survived the drain: a fresh process can resume.
	if _, err := os.Stat(filepath.Join(dir, st.ID, "spec.json")); err != nil {
		t.Errorf("journaled spec missing after drain: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}

func TestUnfinished(t *testing.T) {
	if got := unfinished(nil); got != nil {
		t.Fatalf("unfinished(nil) = %v", got)
	}

	store, err := runsvc.NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}

	// done: clean finish, not a resume candidate.
	// dead: no status at all (process killed before writing one).
	// crashed: terminal status that still warrants a resume.
	for id, rec := range map[string]*runsvc.StatusRecord{
		"done":    {State: runsvc.StateDone},
		"dead":    nil,
		"crashed": {State: runsvc.StateCrashed},
	} {
		jl, err := store.Open(id)
		if err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		if rec != nil {
			if err := jl.WriteStatus(*rec); err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
		}
		jl.Close()
	}

	got := unfinished(store)
	if len(got) != 2 || got[0] != "crashed" || got[1] != "dead" {
		t.Fatalf("unfinished = %v, want [crashed dead]", got)
	}
}

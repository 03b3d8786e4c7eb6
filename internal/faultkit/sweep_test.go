package faultkit

// The boundary sweep is the systematic half of the durability proof. The
// chaos schedules sample kill-points from a seeded stream; the sweep
// enumerates them: a recording pass counts every durability boundary one
// journaled job crosses, then the job is killed at each boundary in turn
// (and torn inside each append), resumed in a fresh manager, and held to
// the unfaulted run's exact result with no settled pair re-asked.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/runsvc"
)

// sweepFullEnv selects the exhaustive sweep (`make chaos`); unset, tier-1
// kills at every sweepStride-th boundary.
const (
	sweepFullEnv = "CORLEONE_SWEEP_FULL"
	sweepStride  = 8
)

// sweepSeam drives the store's fault seam as one ordered boundary
// counter: every consultation is one boundary. In recording mode
// (target < 0) it only logs them; otherwise it kills at boundary target —
// after the operation completes, or, with tear set, part-way through the
// append. One job on one executor crosses the seam from a single
// goroutine, so the numbering is deterministic.
type sweepSeam struct {
	target int
	tear   bool

	n       int
	appends []bool // per boundary seen: is it an append (tearable)?
	names   []string
}

func (s *sweepSeam) install(store *runsvc.Store) {
	store.Faults = func(op runsvc.Op) runsvc.Fault {
		i := s.n
		s.n++
		s.appends = append(s.appends, op.Kind == runsvc.OpAppend)
		s.names = append(s.names, op.Kind+" "+op.File)
		switch {
		case i != s.target:
			return runsvc.Fault{}
		case s.tear:
			return runsvc.Fault{Tear: len(op.Data) / 2}
		}
		return runsvc.Fault{Crash: true}
	}
}

// sweepResult strips the fields of a Result that legitimately depend on
// where a run was interrupted: replay restores journaled labels before the
// first phase, so the per-phase "new pairs labeled" split and the
// after-blocking spend snapshot move, while every total, estimate, match
// and model must not.
func sweepResult(res *engine.Result) engine.Result {
	out := *res
	out.BlockingAccounting = crowd.Accounting{}
	out.Phases = append([]engine.Phase(nil), res.Phases...)
	for i := range out.Phases {
		out.Phases[i].PairsLabeled = 0
	}
	return out
}

// assertModelsLoad checks that every per-iteration matcher file present
// in the job directory is a complete, loadable forest — the name is
// documented as directly loadable, so a kill must never leave a torn one.
func assertModelsLoad(t *testing.T, jobDir string) {
	t.Helper()
	models, err := filepath.Glob(filepath.Join(jobDir, "model_iter*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range models {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = forest.Load(f, nil)
		f.Close()
		if err != nil {
			t.Errorf("%s does not load after the kill: %v", filepath.Base(path), err)
		}
	}
}

func TestDurabilityBoundarySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("boundary sweep in -short mode")
	}
	meta := runsvc.Meta{Profile: "restaurants", Scale: 0.1, Seed: 11}
	spec, err := runsvc.BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	base, err := engine.Run(spec.Dataset, spec.Crowd, spec.Config)
	if err != nil {
		t.Fatalf("unfaulted run: %v", err)
	}
	want := sweepResult(base)

	// run executes one epoch of the job in a fresh manager on dir: a new
	// submission when id is empty, a resume otherwise.
	run := func(dir, id string, seam *sweepSeam, c crowd.Crowd) (*runsvc.Job, *engine.Result) {
		mgr, err := runsvc.NewManager(runsvc.Options{Workers: 1, JournalDir: dir, SnapshotEvery: 1}) //corlint:allow det-time — the journaling service stamps operator-facing times; the sweep compares results, never clocks
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		defer mgr.Close()
		if seam != nil {
			seam.install(mgr.Store())
		}
		js := runsvc.Spec{Name: spec.Name, Dataset: spec.Dataset, Crowd: c, Config: spec.Config, Meta: &meta}
		var job *runsvc.Job
		if id == "" {
			job, err = mgr.Submit(js)
		} else {
			job, err = mgr.ResumeSpec(id, js)
		}
		if err != nil {
			t.Fatalf("submit/resume: %v", err)
		}
		res, _ := job.Wait()
		return job, res
	}

	// Recording pass: no faults, every boundary logged.
	rec := &sweepSeam{target: -1}
	job, res := run(t.TempDir(), "", rec, spec.Crowd)
	if job.State() != runsvc.StateDone {
		t.Fatalf("recording pass ended %s", job.State())
	}
	if got := sweepResult(res); !reflect.DeepEqual(got, want) {
		t.Fatal("journaled run differs from the plain engine run")
	}
	if rec.n < 50 {
		t.Fatalf("recording pass saw only %d boundaries; the seam is not wired", rec.n)
	}

	stride := sweepStride
	if os.Getenv(sweepFullEnv) != "" {
		stride = 1
	}
	kills := 0
	for i := 0; i < rec.n; i += stride {
		for _, tear := range []bool{false, true} {
			if tear && !rec.appends[i] {
				continue
			}
			kills++
			what := fmt.Sprintf("boundary %d/%d (%s, tear=%v)", i, rec.n, rec.names[i], tear)
			dir := t.TempDir()
			job, _ := run(dir, "", &sweepSeam{target: i, tear: tear}, spec.Crowd)
			if job.State() != runsvc.StateCrashed {
				t.Fatalf("%s: killed epoch ended %s, want crashed", what, job.State())
			}
			assertModelsLoad(t, filepath.Join(dir, job.ID))

			settled := settledPairs(t, dir, job.ID)
			counter := &countingCrowdErr{inner: &FlakyCrowd{Inner: spec.Crowd}}
			resumed, res := run(dir, job.ID, nil, counter)
			if resumed.State() != runsvc.StateDone {
				t.Fatalf("%s: resumed epoch ended %s", what, resumed.State())
			}
			for p := range settled {
				if n := counter.count(p); n != 0 {
					t.Errorf("%s: settled pair %v re-asked %d times", what, p, n)
				}
			}
			if res.Accounting != base.Accounting {
				t.Errorf("%s: accounting %+v, unfaulted %+v", what, res.Accounting, base.Accounting)
			}
			if res.Accounting.Degraded {
				t.Errorf("%s: resumed run flagged degraded", what)
			}
			if got := sweepResult(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: resumed Result differs from the unfaulted run", what)
			}
			assertModelsLoad(t, filepath.Join(dir, job.ID))
		}
	}
	t.Logf("%d boundaries (%s), %d kills at stride %d", rec.n, boundaryMix(rec.names), kills, stride)
}

// boundaryMix summarises the recorded boundaries by their first word.
func boundaryMix(names []string) string {
	counts := map[string]int{}
	var order []string
	for _, n := range names {
		k := strings.Fields(n)[0]
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	parts := make([]string, len(order))
	for i, k := range order {
		parts[i] = fmt.Sprintf("%d %s", counts[k], k)
	}
	return strings.Join(parts, ", ")
}

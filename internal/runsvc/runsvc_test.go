package runsvc

import (
	"sync"
	"testing"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
)

func testMeta(seed int64, scale, errRate float64) Meta {
	return Meta{
		Profile:   "restaurants",
		Scale:     scale,
		ErrorRate: errRate,
		Seed:      seed,
	}
}

// serialRun executes the same job outside the service, for comparison.
func serialRun(t *testing.T, meta Meta) *engine.Result {
	t.Helper()
	spec, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	res, err := engine.Run(spec.Dataset, spec.Crowd, spec.Config)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return res
}

func TestBuildSpecValidation(t *testing.T) {
	if _, err := BuildSpec(Meta{Profile: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	spec := Spec{}
	if err := spec.normalize(); err == nil {
		t.Fatal("empty spec accepted")
	}
	spec, err := BuildSpec(testMeta(1, 0.1, 0))
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	spec.Config.Cancel = make(chan struct{})
	if err := spec.normalize(); err == nil {
		t.Fatal("spec with service-owned Cancel accepted")
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"Restaurants": "restaurants",
		"My Job_v2.1": "my-job-v2-1",
		"!!!":         "job",
		"a-b":         "a-b",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestManagerRunsJob covers the basic lifecycle: queued -> running -> done,
// with a result identical to a serial engine.Run of the same spec.
func TestManagerRunsJob(t *testing.T) {
	meta := testMeta(5, 0.15, 0)
	m, err := NewManager(Options{Workers: 2})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatalf("job error: %v", err)
	}
	if j.State() != StateDone {
		t.Fatalf("state = %s, want done", j.State())
	}

	want := serialRun(t, meta)
	if res.True.F1 != want.True.F1 {
		t.Errorf("managed F1 = %.4f, serial = %.4f", res.True.F1, want.True.F1)
	}
	if res.Accounting != want.Accounting {
		t.Errorf("managed accounting %+v != serial %+v", res.Accounting, want.Accounting)
	}
	if len(res.Matches) != len(want.Matches) {
		t.Errorf("managed %d matches, serial %d", len(res.Matches), len(want.Matches))
	}

	events := j.Events()
	if len(events) == 0 {
		t.Fatal("no events published")
	}
	if events[0].Kind != "state" || events[0].State != StateQueued {
		t.Errorf("first event %+v, want state/queued", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != StateDone {
		t.Errorf("last event %+v, want state/done", last)
	}
	var checkpoints, progress int
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Job != j.ID {
			t.Fatalf("event %d carries job %q, want %q", i, e.Job, j.ID)
		}
		switch e.Kind {
		case "checkpoint":
			checkpoints++
		case "progress":
			progress++
		}
	}
	if checkpoints == 0 || progress == 0 {
		t.Errorf("got %d checkpoint and %d progress events, want both > 0", checkpoints, progress)
	}

	st := j.Status()
	if st.State != StateDone || st.Matches != len(want.Matches) || st.Cost != want.Accounting.Cost {
		t.Errorf("status %+v inconsistent with result", st)
	}
}

// TestManagerConcurrentJobs runs four jobs in parallel on the pool and
// checks each against its own serial baseline, plus per-job event-stream
// isolation. Run under -race this is the acceptance check for concurrent
// engine instances sharing a process.
func TestManagerConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent manager test in -short mode")
	}
	metas := []Meta{
		testMeta(11, 0.2, 0),
		testMeta(22, 0.2, 0.05),
		testMeta(33, 0.15, 0),
		testMeta(44, 0.15, 0.10),
	}
	baselines := make([]*engine.Result, len(metas))
	for i, meta := range metas {
		baselines[i] = serialRun(t, meta)
	}

	m, err := NewManager(Options{Workers: len(metas)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	jobs := make([]*Job, len(metas))
	streams := make([]<-chan Event, len(metas))
	for i := range metas {
		meta := metas[i]
		j, err := m.Submit(Spec{Meta: &meta})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs[i] = j
		ch, cancel := j.Subscribe()
		defer cancel()
		streams[i] = ch
	}

	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want := baselines[i]
		if res.True.F1 != want.True.F1 {
			t.Errorf("job %d F1 = %.4f, serial = %.4f", i, res.True.F1, want.True.F1)
		}
		if res.Accounting != want.Accounting {
			t.Errorf("job %d accounting %+v != serial %+v", i, res.Accounting, want.Accounting)
		}
		if res.StopReason != want.StopReason {
			t.Errorf("job %d stop %q != serial %q", i, res.StopReason, want.StopReason)
		}
	}

	// Each subscriber sees exactly its own job's events, in sequence order,
	// ending with the channel closing after the terminal state.
	for i, ch := range streams {
		seq := 0
		sawDone := false
		for e := range ch {
			if e.Job != jobs[i].ID {
				t.Fatalf("stream %d received event for job %q", i, e.Job)
			}
			if e.Seq != seq {
				t.Fatalf("stream %d: seq %d, want %d", i, e.Seq, seq)
			}
			seq++
			if e.Kind == "state" && e.State == StateDone {
				sawDone = true
			}
		}
		if !sawDone {
			t.Errorf("stream %d closed without a done event", i)
		}
	}
}

// gatedCrowd holds its first answer until release closes, announcing on
// asked that the run is waiting on it, so a test can cancel a job at a
// known point mid-pipeline.
type gatedCrowd struct {
	crowd.Crowd
	asked, release chan struct{}
	once           sync.Once
}

func (g *gatedCrowd) Answer(p record.Pair) bool {
	g.once.Do(func() {
		close(g.asked)
		<-g.release
	})
	return g.Crowd.Answer(p)
}

// TestManagerIndependentCancellation runs four jobs concurrently and
// cancels two of them mid-run; the other two must finish unaffected.
func TestManagerIndependentCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation test in -short mode")
	}
	m, err := NewManager(Options{Workers: 4})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	// Jobs 1 and 3 are library specs whose crowd blocks on its first
	// question, so each is canceled while it waits on the crowd.
	jobs := make([]*Job, 4)
	gates := make(map[int]*gatedCrowd)
	for i := range jobs {
		meta := testMeta(int64(100+i), 0.3, 0)
		spec := Spec{Meta: &meta}
		if i == 1 || i == 3 {
			built, err := BuildSpec(meta)
			if err != nil {
				t.Fatalf("BuildSpec: %v", err)
			}
			gates[i] = &gatedCrowd{Crowd: built.Crowd, asked: make(chan struct{}), release: make(chan struct{})}
			spec = Spec{Name: built.Name, Dataset: built.Dataset, Crowd: gates[i], Config: built.Config}
		}
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, g := range gates {
		<-g.asked
		jobs[i].Cancel()
		close(g.release)
	}

	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		switch i {
		case 1, 3:
			if j.State() != StateCanceled {
				t.Errorf("job %d state = %s, want canceled", i, j.State())
			}
			if res == nil || res.StopReason != "canceled" {
				t.Errorf("job %d result %v, want one stopped as canceled", i, res)
			}
		default:
			if j.State() != StateDone {
				t.Errorf("job %d state = %s, want done", i, j.State())
			}
			if res == nil || res.True.F1 <= 0 {
				t.Errorf("job %d finished without a usable result", i)
			}
		}
	}
}

// TestManagerCancelQueued cancels a job before an executor picks it up.
func TestManagerCancelQueued(t *testing.T) {
	m, err := NewManager(Options{Workers: 1})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	long := testMeta(7, 0.3, 0)
	first, err := m.Submit(Spec{Meta: &long})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queuedMeta := testMeta(8, 0.3, 0)
	queued, err := m.Submit(Spec{Meta: &queuedMeta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	select {
	case <-queued.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("canceled queued job never finished")
	}
	if queued.State() != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", queued.State())
	}
	for _, e := range queued.Events() {
		if e.Kind == "state" && e.State == StateRunning {
			t.Fatal("canceled queued job transitioned to running")
		}
	}
	first.Cancel()
	first.Wait()
}

func TestManagerJobListingAndLookup(t *testing.T) {
	m, err := NewManager(Options{Workers: 2})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	meta := testMeta(3, 0.1, 0)
	j1, _ := m.Submit(Spec{Meta: &meta})
	j2, _ := m.Submit(Spec{Meta: &meta})
	if j1.ID == j2.ID {
		t.Fatalf("duplicate job ids: %s", j1.ID)
	}
	if got := m.Jobs(); len(got) != 2 || got[0] != j1 || got[1] != j2 {
		t.Fatalf("Jobs() = %v, want [j1 j2]", got)
	}
	if _, ok := m.Job(j1.ID); !ok {
		t.Fatalf("Job(%s) not found", j1.ID)
	}
	if err := m.Cancel("missing"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
	j1.Wait()
	j2.Wait()

	m.Close()
	if _, err := m.Submit(Spec{Meta: &meta}); err == nil {
		t.Fatal("submit after Close succeeded")
	}
}

package runsvc

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/record"
)

// journalFiles lists the files in a journal dir whose names start with
// prefix (snapPrefix, logPrefix, ...), ascending.
func journalFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"*"))
	if err != nil {
		t.Fatalf("list %s*: %v", prefix, err)
	}
	return paths
}

// logBytesOnDisk totals the log generations currently in a journal dir —
// the most a replay's log pass may consume.
func logBytesOnDisk(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, path := range journalFiles(t, dir, logPrefix) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat %s: %v", path, err)
		}
		total += fi.Size()
	}
	return total
}

// flipMiddleByte rots one bit in the middle of a file.
func flipMiddleByte(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
}

// crashWithSnapshots runs a job with a kill injected after crashAfter
// batch flushes, returning the journal root and the crashed job's id. It
// fails the test unless at least one snapshot generation was written
// before the crash — the precondition every snapshot-resume test needs.
func crashWithSnapshots(t *testing.T, meta Meta, crashAfter int) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	m, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m.Store().Faults = crashAfterBatches(crashAfter)
	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j.Wait()
	snaps := m.Store().SnapshotsWritten()
	m.Close()
	if j.State() != StateCrashed {
		t.Fatalf("state = %s, want crashed", j.State())
	}
	if snaps == 0 {
		t.Fatalf("no snapshot written before the crash (crashAfter=%d); raise crashAfter", crashAfter)
	}
	return dir, j.ID
}

// resumeAndWait resumes the job on a fresh manager with a counting crowd,
// returning the manager, the result, and the per-pair answer counter.
func resumeAndWait(t *testing.T, dir, id string, meta Meta) (*Manager, *Job, *countingCrowd) {
	t.Helper()
	m, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	spec, err := BuildSpec(meta)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	counting := &countingCrowd{inner: spec.Crowd}
	j, err := m.ResumeSpec(id, Spec{
		Name:    spec.Name,
		Dataset: spec.Dataset,
		Crowd:   counting,
		Config:  spec.Config,
		Meta:    &meta,
	})
	if err != nil {
		m.Close()
		t.Fatalf("ResumeSpec: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		m.Close()
		t.Fatalf("resumed job: %v", err)
	}
	return m, j, counting
}

// TestSnapshotResumeBitIdentical is the compaction acceptance test: a job
// crashed after snapshots + pruning have discarded its log prefix must
// resume from the newest generation to the exact result and accounting of
// an uninterrupted run — the snapshot replaces the log history losslessly.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot resume integration test in -short mode")
	}
	meta := testMeta(7, 0.2, 0)
	base := serialRun(t, meta)
	dir, id := crashWithSnapshots(t, meta, 5)

	m, j, _ := resumeAndWait(t, dir, id, meta)
	defer m.Close()
	res, _ := j.Wait()
	if j.State() != StateDone {
		t.Fatalf("resumed job state = %s, want done", j.State())
	}
	if res.Accounting != base.Accounting {
		t.Errorf("resumed accounting %+v != uninterrupted %+v", res.Accounting, base.Accounting)
	}
	if res.True.F1 != base.True.F1 || res.StopReason != base.StopReason ||
		res.Iterations != base.Iterations {
		t.Errorf("resumed result %v/%q/%d, baseline %v/%q/%d",
			res.True.F1, res.StopReason, res.Iterations,
			base.True.F1, base.StopReason, base.Iterations)
	}
	if !samePairs(res.Matches, base.Matches) {
		t.Errorf("resumed matches (%d) differ from baseline (%d)", len(res.Matches), len(base.Matches))
	}

	// The resume announced the compaction it replayed from: a "compact"
	// event per generation written during the resumed run is optional, but
	// the replay itself must have read a snapshot.
	if m.Store().BytesRead() == 0 {
		t.Error("resume read no journal bytes")
	}
}

// TestSnapshotBoundedReplay pins the compaction cost bound: resuming
// after many checkpoints reads only the log records written since the
// last snapshot, not the job's whole append history.
func TestSnapshotBoundedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded replay integration test in -short mode")
	}
	meta := testMeta(7, 0.2, 0)
	dir, id := crashWithSnapshots(t, meta, 5)

	// What the crash left on disk: the open log plus the one older log the
	// fallback ladder retains — by construction O(records since the last
	// snapshot), already compacted down from the full history.
	jdir := filepath.Join(dir, id)
	suffix := logBytesOnDisk(t, jdir)

	m, j, _ := resumeAndWait(t, dir, id, meta)
	defer m.Close()
	if j.State() != StateDone {
		t.Fatalf("resumed job state = %s, want done", j.State())
	}

	logRead := m.Store().LogBytesRead()
	if logRead == 0 {
		t.Fatal("replay consumed no log bytes; instrumentation broken")
	}
	if logRead > suffix {
		t.Errorf("replay read %d log bytes, but only %d log bytes existed on disk at resume", logRead, suffix)
	}
	// The newest generation validated, so replay read only its own log, not
	// the retained fallback log too.
	if newest := journalFiles(t, jdir, logPrefix); len(newest) > 1 && logRead >= suffix {
		t.Errorf("replay read all %d log bytes on disk; the log below the restored generation was not skipped", suffix)
	}
	// The bound must be a real saving: a snapshot was read in place of the
	// pruned log prefix.
	if total := m.Store().BytesRead(); total <= logRead {
		t.Errorf("total replay bytes %d not above log share %d; no snapshot was read", total, logRead)
	}
}

// TestSnapshotCorruptionFallback flips one byte in the newest snapshot
// generation and asserts resume falls back to the previous generation
// plus its longer log suffix — landing on bit-identical accounting with
// no pair re-paid.
func TestSnapshotCorruptionFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption fallback integration test in -short mode")
	}
	meta := testMeta(7, 0.2, 0)
	base := serialRun(t, meta)

	// Run to completion: retention keeps the newest two
	// generations, exactly the ladder the corruption must exercise.
	dir := t.TempDir()
	m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	j1, err := m1.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatalf("job: %v", err)
	}
	m1.Close()

	jdir := filepath.Join(dir, j1.ID)
	snaps := journalFiles(t, jdir, snapPrefix)
	if len(snaps) != 2 {
		t.Fatalf("retention kept %d snapshot generations %v, want 2", len(snaps), snaps)
	}
	flipMiddleByte(t, snaps[len(snaps)-1])

	m2, j2, counting := resumeAndWait(t, dir, j1.ID, meta)
	defer m2.Close()
	res, _ := j2.Wait()
	if j2.State() != StateDone {
		t.Fatalf("resumed job state = %s, want done", j2.State())
	}
	if got := m2.Store().SnapshotFallbacks(); got < 1 {
		t.Errorf("fallback counter = %d, want >= 1 (corrupt generation skipped)", got)
	}
	if res.Accounting != base.Accounting {
		t.Errorf("post-fallback accounting %+v != uninterrupted %+v", res.Accounting, base.Accounting)
	}
	if counting.total != 0 {
		t.Errorf("resume of a finished job re-paid %d answers after fallback, want 0", counting.total)
	}
	if !samePairs(res.Matches, base.Matches) {
		t.Errorf("post-fallback matches (%d) differ from baseline (%d)", len(res.Matches), len(base.Matches))
	}
}

// TestSnapshotAllGenerationsCorrupt: when every retained generation fails
// validation, Replay must refuse to run — older logs were pruned, so a log-only replay would silently under-restore paid
// state. A loud failure is the contract.
func TestSnapshotAllGenerationsCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption integration test in -short mode")
	}
	meta := testMeta(7, 0.2, 0)
	dir, id := crashWithSnapshots(t, meta, 5)

	jdir := filepath.Join(dir, id)
	for _, path := range journalFiles(t, jdir, snapPrefix) {
		flipMiddleByte(t, path)
	}

	m, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	j, err := m.Resume(id)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "no valid snapshot generation") {
		t.Fatalf("resume with every generation corrupt: err = %v, want refusal", err)
	}
	if j.State() != StateFailed {
		t.Errorf("state = %s, want failed", j.State())
	}
}

// TestSnapshotTornTmpSweep covers the dir-with-only-a-torn-tmp shape: a
// crash between tmp-write and rename leaves an orphaned tmp and no
// installed generation. Open must sweep the tmp, and Replay must fall
// through to plain full-log replay.
func TestSnapshotTornTmpSweep(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	jdir := filepath.Join(dir, "torn")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	log := appendFrame(nil, kindCheckpoint, []byte(`{"phase":"blocking"}`))
	log = appendFrame(log, kindLabel, []byte(`{"a":0,"b":0,"answers":[true,true]}`))
	if err := os.WriteFile(filepath.Join(jdir, logName(0)), log, 0o644); err != nil {
		t.Fatal(err)
	}
	// The torn tmp a kill mid-snapshot-write leaves: the first frames of
	// generation 1, cut mid-frame, never renamed.
	torn := filepath.Join(jdir, tmpPrefix+snapName(1))
	if err := os.WriteFile(torn, log[:len(log)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	jl, err := store.Open("torn")
	if err != nil {
		t.Fatalf("open with torn tmp: %v", err)
	}
	defer jl.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn snapshot tmp survived Open (stat err %v)", err)
	}
	c := oracleFor(record.P(0, 0))
	r := crowd.NewRunner(c, 0.01)
	got, err := jl.Replay(r)
	if err != nil {
		t.Fatalf("replay after sweep: %v", err)
	}
	if got.Labels != 1 || got.Checkpoints != 1 {
		t.Errorf("replayed %+v; want 1 label and 1 checkpoint", got)
	}
	if answers, pairs := r.Restored(); answers != 2 || pairs != 1 {
		t.Errorf("restored %d answers over %d pairs, want 2 over 1", answers, pairs)
	}
	// Re-asking the pair serves its two answers and charges them; a strong
	// label needs a third, asked live only past them.
	if !r.Label(record.P(0, 0), crowd.Policy21) || c.total != 0 || r.Stats().Answers != 2 {
		t.Errorf("re-asking the restored pair took %d crowd calls, accounting %+v", c.total, r.Stats())
	}
	if !r.Label(record.P(0, 0), crowd.PolicyStrong) || c.total != 1 || r.Stats().Answers != 3 {
		t.Errorf("topping the pair up to strong took %d crowd calls, accounting %+v; want 1 and 3 answers",
			c.total, r.Stats())
	}
}

// TestSnapshotDirBounded pins the compaction retention bound: across three
// or more generations, the journal directory holds the spec, the status,
// at most the two newest snapshots with their two logs, and two matcher
// model files — the prefix history is gone and nothing else is left behind.
func TestSnapshotDirBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction retention integration test in -short mode")
	}
	// Seed 4 writes three generations; the suite's seed 7 writes two.
	meta := testMeta(4, 0.2, 0)
	dir := t.TempDir()
	m, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("job: %v", err)
	}
	if snaps := m.Store().SnapshotsWritten(); snaps < 3 {
		t.Fatalf("job wrote %d snapshot generations, need >= 3 to exercise retention", snaps)
	}

	jdir := filepath.Join(dir, j.ID)
	entries, err := os.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	// Only the documented file kinds, each within its retention bound.
	counts := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == "spec.json" || name == "status.json":
		case strings.HasPrefix(name, snapPrefix):
			counts[snapPrefix]++
		case strings.HasPrefix(name, logPrefix):
			counts[logPrefix]++
		case strings.HasPrefix(name, modelPrefix):
			counts[modelPrefix]++
		default:
			t.Errorf("unexpected file %s in the job directory", name)
		}
	}
	for _, prefix := range []string{snapPrefix, logPrefix, modelPrefix} {
		if n := counts[prefix]; n == 0 || n > 2 {
			t.Errorf("%d %s* files on disk, retention promises 1..2", n, prefix)
		}
	}
}

// TestResumeFinishedJobWritesNothing pins the seed fix: resuming a job that
// already finished replays everything from the journal and settles nothing
// new, so it must not write another snapshot generation (re-installed seed
// labels used to mark the journal dirty) and may append only the resumed
// run's checkpoint frames to the current log.
func TestResumeFinishedJobWritesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("resume integration test in -short mode")
	}
	dir := t.TempDir()
	meta := testMeta(7, 0.2, 0) // oracle crowd: resume of a finished job is exact
	m1, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	j1, err := m1.Submit(Spec{Meta: &meta})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res1, err := j1.Wait()
	m1.Close()
	if err != nil || j1.State() != StateDone {
		t.Fatalf("first run: state %s, err %v", j1.State(), err)
	}
	jobDir := filepath.Join(dir, j1.ID)
	snapsBefore := journalFiles(t, jobDir, snapPrefix)
	if len(snapsBefore) == 0 {
		t.Fatal("the finished job wrote no snapshot; the test exercises nothing")
	}
	logsBefore := make(map[string][]byte)
	for _, path := range journalFiles(t, jobDir, logPrefix) {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		logsBefore[path] = buf
	}

	m2, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m2.Close()
	j2, err := m2.Resume(j1.ID)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res2, err := j2.Wait()
	if err != nil || j2.State() != StateDone {
		t.Fatalf("resumed run: state %s, err %v", j2.State(), err)
	}
	if res2.Accounting != res1.Accounting {
		t.Errorf("resumed accounting %+v != finished run's %+v", res2.Accounting, res1.Accounting)
	}
	if res2.True != res1.True || res2.StopReason != res1.StopReason || res2.Iterations != res1.Iterations ||
		!samePairs(res2.Matches, res1.Matches) {
		t.Errorf("resumed result %v/%q/%d (%d matches) differs from the finished run's %v/%q/%d (%d matches)",
			res2.True, res2.StopReason, res2.Iterations, len(res2.Matches),
			res1.True, res1.StopReason, res1.Iterations, len(res1.Matches))
	}
	if n := m2.Store().SnapshotsWritten(); n != 0 {
		t.Errorf("resume of a finished job wrote %d snapshot generations, want 0", n)
	}
	if after := journalFiles(t, jobDir, snapPrefix); strings.Join(after, " ") != strings.Join(snapsBefore, " ") {
		t.Errorf("snapshot files changed: %v, were %v", after, snapsBefore)
	}
	logsAfter := journalFiles(t, jobDir, logPrefix)
	if len(logsAfter) != len(logsBefore) {
		t.Errorf("log files changed: %v, were %d", logsAfter, len(logsBefore))
	}
	for _, path := range logsAfter {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before, ok := logsBefore[path]
		if !ok || !bytes.HasPrefix(buf, before) {
			t.Errorf("%s is not its pre-resume content plus appends", filepath.Base(path))
			continue
		}
		frames, valid := decodeFrames(buf[len(before):])
		if valid != len(buf)-len(before) {
			t.Errorf("%s: appended bytes are not whole frames", filepath.Base(path))
		}
		for _, f := range frames {
			if f.kind != kindCheckpoint {
				t.Errorf("%s: resume appended a %q frame; only checkpoint frames may be written", filepath.Base(path), f.kind)
			}
		}
	}
}

// sizeEvent is one step of a journal as its fault seam sees it: a log
// append (its bytes, whether it carried label frames, whether it closed
// with a checkpoint frame) or an installed snapshot (its bytes).
type sizeEvent struct {
	snap       bool
	bytes      int64
	labels     bool
	checkpoint bool
}

// recordSizes is a fault seam that faults nothing and logs the journal's
// log appends and snapshot installs, in order.
func recordSizes(events *[]sizeEvent) FaultFunc {
	var pending int64
	return func(op Op) Fault {
		switch {
		case op.Kind == OpAppend && strings.HasPrefix(op.File, logPrefix):
			frames, _ := decodeFrames(op.Data)
			e := sizeEvent{bytes: int64(len(op.Data))}
			for _, f := range frames {
				e.labels = e.labels || f.kind == kindLabel
			}
			e.checkpoint = len(frames) > 0 && frames[len(frames)-1].kind == kindCheckpoint
			*events = append(*events, e)
		case op.Kind == OpAppend && strings.HasPrefix(op.File, tmpPrefix+snapPrefix):
			pending = int64(len(op.Data))
		case op.Kind == OpRename && strings.HasPrefix(op.File, snapPrefix):
			*events = append(*events, sizeEvent{snap: true, bytes: pending})
		}
		return Fault{}
	}
}

// sizeDecision is the compaction rule's input and outcome at one
// checkpoint: the live log with the checkpoint's frames, the newest
// snapshot, whether labels were appended since it, and whether the
// checkpoint compacted. found marks a checkpoint still under the snapshot
// the journal was opened with; sinceOpen is the log bytes appended since
// the open.
type sizeDecision struct {
	log, snap, sinceOpen int64
	dirty, compacted     bool
	found                bool
}

// sizeDecisions replays recorded events from a journal opened with a
// live log of log bytes and a newest snapshot of snap bytes.
func sizeDecisions(events []sizeEvent, log, snap int64) []sizeDecision {
	var out []sizeDecision
	var sinceOpen int64
	dirty, found := false, true
	for i, e := range events {
		if e.snap {
			log, snap, dirty, found = 0, e.bytes, false, false
			continue
		}
		log += e.bytes
		sinceOpen += e.bytes
		dirty = dirty || e.labels
		if e.checkpoint {
			out = append(out, sizeDecision{
				log: log, snap: snap, sinceOpen: sinceOpen,
				dirty: dirty, compacted: i+1 < len(events) && events[i+1].snap, found: found,
			})
		}
	}
	return out
}

// TestSnapshotSizeBounds pins the compaction rule's two bounds on
// finished jobs: after every checkpoint that followed new labels the live
// log is no larger than the newest snapshot, and the snapshots written
// total under twice the log bytes — each snapshot is at most its
// predecessor plus the log that triggered it, and that log was larger
// than the predecessor.
func TestSnapshotSizeBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction bound integration test in -short mode")
	}
	held := 0
	for _, seed := range []int64{3, 7} {
		meta := testMeta(seed, 0.2, 0)
		m, err := NewManager(Options{Workers: 1, JournalDir: t.TempDir()})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		var events []sizeEvent
		m.Store().Faults = recordSizes(&events)
		j, err := m.Submit(Spec{Meta: &meta})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snaps, snapBytes, logBytes := m.Store().SnapshotsWritten(), m.Store().SnapshotBytes(), m.Store().BytesWritten()
		m.Close()

		if snaps < 2 {
			t.Fatalf("seed %d wrote %d snapshot generations, need >= 2 to bound one by another", seed, snaps)
		}
		for i, d := range sizeDecisions(events, 0, 0) {
			if !d.dirty {
				continue
			}
			live := d.log
			if d.compacted {
				live = 0
			} else {
				held++
			}
			if live > d.snap {
				t.Errorf("seed %d, checkpoint %d: live log %d bytes after the checkpoint, newest snapshot %d",
					seed, i, live, d.snap)
			}
		}
		if snapBytes >= 2*logBytes {
			t.Errorf("seed %d: %d snapshot bytes against %d log bytes, want under twice", seed, snapBytes, logBytes)
		}
	}
	if held == 0 {
		t.Error("every checkpoint that followed labels compacted; the log bound proved nothing")
	}
}

// TestSnapshotSizeRuleSurvivesResume kills jobs after their first
// snapshot and resumes them: the resumed journal must compact exactly when
// its live log, counted from the bytes Store.Open found on disk, passes
// the snapshot Open found. The cases hold both ways a forgetful Open
// would err: a checkpoint the found log keeps under the found snapshot
// (an Open that started both sizes at zero compacts there), and one
// whose appends alone stay under it (an Open that started the log at zero
// does not compact there).
func TestSnapshotSizeRuleSurvivesResume(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction resume integration test in -short mode")
	}
	held, passed := 0, 0
	for _, tc := range []struct {
		seed       int64
		crashAfter int
	}{{7, 9}, {3, 12}} {
		meta := testMeta(tc.seed, 0.2, 0)
		dir, id := crashWithSnapshots(t, meta, tc.crashAfter)
		jdir := filepath.Join(dir, id)
		var openLog, openSnap int64
		for prefix, size := range map[string]*int64{logPrefix: &openLog, snapPrefix: &openSnap} {
			files := journalFiles(t, jdir, prefix)
			fi, err := os.Stat(files[len(files)-1])
			if err != nil {
				t.Fatal(err)
			}
			*size = fi.Size()
		}

		m, err := NewManager(Options{Workers: 1, JournalDir: dir})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		var events []sizeEvent
		m.Store().Faults = recordSizes(&events)
		j, err := m.Resume(id)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		_, err = j.Wait()
		m.Close()
		if err != nil || j.State() != StateDone {
			t.Fatalf("seed %d: resumed job %s, err %v", tc.seed, j.State(), err)
		}

		for i, d := range sizeDecisions(events, openLog, openSnap) {
			if want := d.dirty && d.log > d.snap; d.compacted != want {
				t.Errorf("seed %d, checkpoint %d: compacted=%v with a %d-byte log (%d since Open) against a %d-byte snapshot, dirty=%v",
					tc.seed, i, d.compacted, d.log, d.sinceOpen, d.snap, d.dirty)
			}
			switch {
			case !d.found || !d.dirty:
			case !d.compacted:
				held++
			case d.sinceOpen <= d.snap:
				passed++
			}
		}
	}
	if held == 0 {
		t.Error("no resumed checkpoint stayed under the snapshot Open found; a zero snapshot size would pass")
	}
	if passed == 0 {
		t.Error("no resumed compaction needed the log bytes Open found; a zero log size would pass")
	}
}

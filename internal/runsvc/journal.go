package runsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
)

// The journal (DESIGN.md §3d is its one full description). One directory
// per job under the store root:
//
//	spec.json          job description (Meta), written once at submit
//	status.json        terminal status, written once at the end
//	model_iterNN.json  per-iteration matcher (forest.Save), two newest kept
//	log.gNNNNNN        append-only frames written after generation N
//	snap.gNNNNNN       compacted state as of generation N, two newest kept
//
// The JSON files are atomic write-once side files read without a replay;
// everything resume depends on is frames:
//
//	len uint32 LE | crc uint32 LE | kind byte | payload [len]byte
//
// with the CRC-32 (IEEE) over len, kind and payload. A snapshot is the
// same frames, compacted — one label entry per pair — closed by an end
// frame carrying the counts those frames must restore. A log is named by
// the generation it follows and never renamed, so a job's state is always
// "newest valid snap.gN, then every log.g>=N in order", and no record is
// ever covered twice. Every write, fsync, rename and removal crosses
// Store.Faults, which is how the boundary sweep kills the job at each of
// them.

// Frame kinds.
const (
	kindLabel      = 'L'
	kindCheckpoint = 'C'
	kindEnd        = 'E' // snapshots only, always last
)

const (
	frameHeader = 9 // len, crc, kind
	// maxFramePayload rejects hostile or corrupt lengths before they are
	// used; real payloads (one pair's answers, a checkpoint) are far below.
	maxFramePayload = 64 << 20

	logPrefix   = "log.g"
	snapPrefix  = "snap.g"
	modelPrefix = "model_iter"
	tmpPrefix   = ".tmp-"
)

func logName(gen uint64) string  { return fmt.Sprintf("%s%06d", logPrefix, gen) }
func snapName(gen uint64) string { return fmt.Sprintf("%s%06d", snapPrefix, gen) }

// ErrOldFormat is returned by Store.Open for a job directory written by
// the line-log journal that preceded the frame format. No release shipped
// that format and no journal outlives its job, so it is refused, not
// migrated.
var ErrOldFormat = errors.New("runsvc: job directory holds pre-frame-format journal files")

type frame struct {
	kind    byte
	payload []byte
}

// frameCRC checksums one encoded frame: everything but its crc field.
func frameCRC(f []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(f[:4]), crc32.IEEETable, f[frameHeader-1:])
}

// appendFrame appends one encoded frame to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, 0, 0, 0, 0, kind)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], frameCRC(dst[start:]))
	return dst
}

// decodeFrames is the one frame decoder: it returns the frames of buf's
// longest valid prefix and that prefix's length. It is total — whatever
// follows the last frame whose length fits and whose CRC matches is left
// undecoded, be it a torn append or garbage. Payloads alias buf.
func decodeFrames(buf []byte) (frames []frame, valid int) {
	for len(buf)-valid >= frameHeader {
		h := buf[valid:]
		n := binary.LittleEndian.Uint32(h)
		if n > maxFramePayload || int(n) > len(h)-frameHeader {
			break
		}
		h = h[:frameHeader+int(n)]
		if frameCRC(h) != binary.LittleEndian.Uint32(h[4:]) {
			break
		}
		frames = append(frames, frame{kind: h[frameHeader-1], payload: h[frameHeader:]})
		valid += len(h)
	}
	return frames, valid
}

// Operation kinds crossing the fault seam.
const (
	OpAppend = "append" // one write of whole frames (or a model body) to File
	OpSync   = "sync"   // fsync of File ("." is the job directory)
	OpRename = "rename" // a tmp file renamed to File
	OpRemove = "remove" // File pruned
)

// Op is one durability boundary: the operation about to run and the base
// name of the file it acts on.
type Op struct {
	Kind string
	File string
	// Data is the bytes an OpAppend is about to write.
	Data []byte
}

// Fault is what a FaultFunc injects at one boundary; the zero value lets
// the operation through.
type Fault struct {
	// Crash panics with the crash sentinel right after the operation
	// completes — a process kill at the boundary. Completed writes survive
	// it synced or not, as the page cache outlives a killed process.
	Crash bool
	// Tear, when positive and shorter than an OpAppend's Data, lets only
	// that many bytes reach the file and then crashes: the torn write of a
	// kill mid-append. It never returns to the caller — a torn write the
	// process survived would fuse with the next append, which no real kill
	// can produce.
	Tear int
	// Flip inverts one bit in the middle of an OpAppend's Data before it is
	// written: bit rot the write itself does not notice, for the frame CRCs
	// to catch on the next replay.
	Flip bool
}

// FaultFunc decides the fault for one boundary. Implementations must be
// deterministic (faultkit derives them from seeds) so every chaos failure
// replays from its seed.
type FaultFunc func(op Op) Fault

// crashSentinel is the panic value used by crash injection.
type crashSentinel struct{}

// Store manages the journal root directory.
type Store struct {
	root string

	// Faults, when non-nil, is consulted at every durability boundary of
	// every journal (see Op) for fault injection. Chaos/test use only;
	// production stores leave it nil. Set it before jobs run.
	Faults FaultFunc

	// SnapshotEvery enables compaction: every Nth checkpoint a journal
	// writes a snapshot generation and starts a new log. 0 never compacts —
	// the job's whole history stays in log.g000000, read by the same
	// replay. Set before Open.
	SnapshotEvery int

	// bytes counts log bytes appended across all jobs since the store was
	// opened (served by /metrics); snaps and snapBytes count snapshot
	// generations and their bytes.
	bytes     atomic.Int64
	snaps     atomic.Int64
	snapBytes atomic.Int64

	// Replay-cost instrumentation: bytesRead counts every journal byte
	// Replay consumed (snapshots + logs), logBytesRead only the log share —
	// the quantity compaction bounds to O(records since the last snapshot);
	// snapFallbacks counts invalid generations Replay skipped past.
	bytesRead     atomic.Int64
	logBytesRead  atomic.Int64
	snapFallbacks atomic.Int64

	// Cached DiskUsage state: usageWalk holds the last full-tree WalkDir
	// total and usageLines/usageSnaps the append counters observed at that
	// walk, so usage between walks is extrapolated from the counters
	// instead of re-scanning the journal tree on every submission.
	// usageCalls counts lookups served from the cache since that walk;
	// usageValid is false until the first walk. Guarded by usageMu, not
	// atomics: DiskUsage is a submit-path call, not a hot loop.
	usageMu    sync.Mutex
	usageWalk  int64
	usageLines int64
	usageSnaps int64
	usageCalls int
	usageValid bool
}

// BytesWritten reports log bytes appended across all of the store's
// journals this process.
func (s *Store) BytesWritten() int64 { return s.bytes.Load() }

// BytesRead reports journal bytes consumed by Replay across all of the
// store's journals this process — snapshots plus log suffixes.
func (s *Store) BytesRead() int64 { return s.bytesRead.Load() }

// LogBytesRead reports only the log bytes consumed by Replay: with
// compaction enabled, O(records since the last snapshot).
func (s *Store) LogBytesRead() int64 { return s.logBytesRead.Load() }

// SnapshotsWritten reports snapshot generations written this process.
func (s *Store) SnapshotsWritten() int64 { return s.snaps.Load() }

// SnapshotBytes reports total snapshot bytes written this process.
func (s *Store) SnapshotBytes() int64 { return s.snapBytes.Load() }

// SnapshotFallbacks reports how many invalid snapshot generations Replay
// skipped past (CRC mismatch, torn file) this process.
func (s *Store) SnapshotFallbacks() int64 { return s.snapFallbacks.Load() }

// diskUsageRefreshEvery bounds how many DiskUsage lookups may be served
// from the cached walk before the tree is re-scanned. Between walks,
// growth through the store's own writers (log appends, snapshots) is
// tracked exactly by the byte counters; what the cache lags on is
// deletions (pruned generations, removed journals), which only make it
// overestimate — admission sheds marginally early, never late — and the
// few small files written outside the counters (spec/status/model), an
// underestimate bounded by one refresh window of submissions.
const diskUsageRefreshEvery = 64

// DiskUsage returns the total journal bytes on disk, serving the
// Manager's per-submit disk-budget admission check. The full-tree walk
// runs at most once per diskUsageRefreshEvery lookups; in between, the
// cached total is extrapolated from the store's append and snapshot byte
// counters, so a submission's admission check is O(1) in journal files,
// not a tree scan.
func (s *Store) DiskUsage() (int64, error) {
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	if s.usageValid && s.usageCalls < diskUsageRefreshEvery {
		s.usageCalls++
		grown := (s.bytes.Load() - s.usageLines) + (s.snapBytes.Load() - s.usageSnaps)
		return s.usageWalk + grown, nil
	}
	total, err := s.walkUsage()
	if err != nil {
		return 0, err
	}
	s.usageWalk = total
	s.usageLines = s.bytes.Load()
	s.usageSnaps = s.snapBytes.Load()
	s.usageValid, s.usageCalls = true, 0
	return total, nil
}

// walkUsage scans the store root and totals every journal file's size;
// files racing with deletion are skipped.
func (s *Store) walkUsage() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// NewStore opens (creating if needed) a journal store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runsvc: journal store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Exists reports whether a journal directory exists for the job id.
func (s *Store) Exists(id string) bool {
	st, err := os.Stat(filepath.Join(s.root, id))
	return err == nil && st.IsDir()
}

// Remove deletes a job's journal directory. Used to roll back the
// just-created journal of a submission the queue rejected.
func (s *Store) Remove(id string) error {
	return os.RemoveAll(filepath.Join(s.root, id))
}

// List returns the job ids with journals, sorted.
func (s *Store) List() []string {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// jobFiles is a job directory's journal content by kind: snapshot and log
// generations ascending, matcher files in iteration order.
type jobFiles struct {
	snaps, logs []uint64
	models      []string
	tmps        []string
	old         string // a pre-frame-format file, if any
}

// gen is the newest generation any file references: the generation the
// open log belongs to, and the floor the next snapshot numbers above, so a
// corrupt or superseded generation's number is never reused.
func (f jobFiles) gen() uint64 {
	var g uint64
	if n := len(f.snaps); n > 0 {
		g = f.snaps[n-1]
	}
	if n := len(f.logs); n > 0 && f.logs[n-1] > g {
		g = f.logs[n-1]
	}
	return g
}

func scanJob(dir string) (jobFiles, error) {
	var out jobFiles
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out, err
	}
	parseGen := func(name, prefix string) (uint64, bool) {
		g, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
		return g, err == nil && strings.HasPrefix(name, prefix)
	}
	// ReadDir sorts by name and generations are zero-padded, so each list
	// comes out ascending.
	for _, e := range entries {
		name := e.Name()
		if g, ok := parseGen(name, snapPrefix); ok {
			out.snaps = append(out.snaps, g)
		} else if g, ok := parseGen(name, logPrefix); ok {
			out.logs = append(out.logs, g)
		} else if strings.HasPrefix(name, modelPrefix) {
			out.models = append(out.models, name)
		} else if strings.HasPrefix(name, tmpPrefix) {
			out.tmps = append(out.tmps, name)
		} else if strings.HasSuffix(name, ".jsonl") || strings.HasSuffix(name, ".snap") {
			out.old = name
		}
	}
	return out, nil
}

// Open opens (creating if needed) the journal for one job, positioned to
// append to its newest log. Two kinds of crash debris are cleared first:
// tmp files a kill left before their rename (never referenced, so garbage,
// not state), and a torn final append in the newest log, truncated back to
// the longest valid frame prefix so replay sees only whole frames and new
// appends never fuse with a torn tail. Older logs cannot be torn: a torn
// append kills the process, and the next Open repairs it before any newer
// log exists.
func (s *Store) Open(id string) (*Journal, error) {
	dir := filepath.Join(s.root, id)
	fail := func(err error) (*Journal, error) {
		return nil, fmt.Errorf("runsvc: journal %s: %w", id, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	files, err := scanJob(dir)
	if err != nil {
		return fail(err)
	}
	if files.old != "" {
		return fail(fmt.Errorf("%w (%s)", ErrOldFormat, files.old))
	}
	for _, name := range files.tmps {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fail(err)
		}
	}
	gen := files.gen()
	log, err := os.OpenFile(filepath.Join(dir, logName(gen)), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	buf, err := io.ReadAll(log)
	if _, valid := decodeFrames(buf); err == nil && valid < len(buf) {
		if err = log.Truncate(int64(valid)); err == nil {
			err = log.Sync()
		}
	}
	if err != nil {
		//corlint:allow dur-ignored-write — cleanup of a handle nothing was appended through while the repair error propagates
		log.Close()
		return fail(fmt.Errorf("repair %s: %w", logName(gen), err))
	}
	return &Journal{dir: dir, store: s, log: log, gen: gen}, nil
}

// Journal is one job's durable state. Methods are called from the single
// executor goroutine running the job; no locking needed.
type Journal struct {
	dir   string
	store *Store
	log   *os.File // log.g<gen>, the only file appended to
	gen   uint64

	// buf collects encoded frames until the next write; err is the first
	// append or fsync failure, after which the log's tail is in doubt and
	// every further append is refused rather than risk burying a torn
	// region under frames replay would then silently drop.
	buf []byte
	err error

	// dirty records that labels were appended since the last snapshot, so
	// an idle checkpoint doesn't rewrite identical state.
	dirty       bool
	checkpoints int
}

// Close closes the journal's log. Every append is synced at its batch
// boundary, so a close error cannot lose journaled state — but a caller on
// a write path should still surface it.
func (j *Journal) Close() error { return j.log.Close() }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// cross runs one durability operation through the store's fault seam.
// run receives op.Data (nil for everything but appends).
func (j *Journal) cross(op Op, run func(data []byte) error) error {
	var f Fault
	if j.store.Faults != nil {
		f = j.store.Faults(op)
	}
	if f.Flip && len(op.Data) > 0 {
		op.Data[len(op.Data)/2] ^= 0x01
	}
	if f.Tear > 0 && f.Tear < len(op.Data) {
		// Injected kill mid-write: the torn prefix goes unchecked and
		// unsynced; Store.Open repairs the tail on resume.
		run(op.Data[:f.Tear])
		panic(crashSentinel{})
	}
	if err := run(op.Data); err != nil {
		return err
	}
	if f.Crash {
		panic(crashSentinel{})
	}
	return nil
}

// write appends data to f in one write, returning the bytes that reached
// the file.
func (j *Journal) write(f *os.File, name string, data []byte) (n int, err error) {
	err = j.cross(Op{Kind: OpAppend, File: name, Data: data}, func(p []byte) error {
		var werr error
		n, werr = f.Write(p)
		return werr
	})
	return n, err
}

func (j *Journal) sync(f *os.File, name string) error {
	return j.cross(Op{Kind: OpSync, File: name}, func([]byte) error { return f.Sync() })
}

// install writes data to a tmp file, fsyncs it and renames it to name, so
// name only ever holds a complete file.
func (j *Journal) install(name string, data []byte) (int, error) {
	tmpName := tmpPrefix + name
	tmpPath := filepath.Join(j.dir, tmpName)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := j.write(tmp, tmpName, data)
	if err == nil {
		err = j.sync(tmp, tmpName)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = j.cross(Op{Kind: OpRename, File: name}, func([]byte) error {
			return os.Rename(tmpPath, filepath.Join(j.dir, name))
		})
	}
	if err != nil {
		os.Remove(tmpPath)
	}
	return n, err
}

func (j *Journal) frame(kind byte, payload []byte) {
	j.buf = appendFrame(j.buf, kind, payload)
}

func (j *Journal) frameJSON(kind byte, v interface{}) error {
	payload, err := json.Marshal(v)
	if err == nil {
		j.frame(kind, payload)
	}
	return err
}

// flush appends the buffered frames to the log in one write, fsyncs it
// and empties the buffer.
func (j *Journal) flush() error {
	data := j.buf
	j.buf = j.buf[:0]
	if j.err != nil || len(data) == 0 {
		return j.err
	}
	name := logName(j.gen)
	n, err := j.write(j.log, name, data)
	j.store.bytes.Add(int64(n))
	if err == nil {
		err = j.sync(j.log, name)
	}
	if err != nil {
		j.err = fmt.Errorf("runsvc: append to %s: %w", name, err)
	}
	return j.err
}

// frameLabels buffers the runner's dirty label entries.
func (j *Journal) frameLabels(r *crowd.Runner) {
	if r.AppendLabels(func(e []byte) { j.frame(kindLabel, e) }) > 0 {
		j.dirty = true
	}
}

// FlushLabels appends the runner's dirty label entries and syncs.
func (j *Journal) FlushLabels(r *crowd.Runner) error {
	j.frameLabels(r)
	return j.flush()
}

// checkpointRecord is a checkpoint frame's payload: where the run stood
// and what it had spent, for whoever reads the log after the fact. It
// carries no wall-clock time, so a job's log bytes are a function of its
// seed alone.
type checkpointRecord struct {
	Phase     string  `json:"phase"`
	Iteration int     `json:"iteration"`
	Answers   int     `json:"answers"`
	Pairs     int     `json:"pairs"`
	Cost      float64 `json:"cost"`
	HITs      int     `json:"hits"`
}

// SnapshotInfo describes one written snapshot generation.
type SnapshotInfo struct {
	Gen    uint64
	Bytes  int64
	Labels int
}

// Checkpoint flushes labels with a phase/cost record; on iteration
// boundaries it also saves the matcher with forest serialization, so the
// best model so far survives a crash in a directly loadable form. Every
// Store.SnapshotEvery-th checkpoint additionally compacts the journal
// into the next snapshot generation, returned with a non-zero Gen.
func (j *Journal) Checkpoint(r *crowd.Runner, cp engine.Checkpoint) (SnapshotInfo, error) {
	j.frameLabels(r)
	if err := j.frameJSON(kindCheckpoint, checkpointRecord{
		Phase:     cp.Phase,
		Iteration: cp.Iteration,
		Answers:   cp.Accounting.Answers,
		Pairs:     cp.Accounting.Pairs,
		Cost:      cp.Accounting.Cost,
		HITs:      cp.Accounting.HITs,
	}); err != nil {
		return SnapshotInfo{}, err
	}
	if err := j.flush(); err != nil {
		return SnapshotInfo{}, err
	}
	if cp.Forest != nil {
		var model bytes.Buffer
		if err := cp.Forest.Save(&model, cp.FeatureNames); err != nil {
			return SnapshotInfo{}, err
		}
		if _, err := j.install(fmt.Sprintf("%s%02d.json", modelPrefix, cp.Iteration), model.Bytes()); err != nil {
			return SnapshotInfo{}, err
		}
	}
	j.checkpoints++
	if every := j.store.SnapshotEvery; every > 0 && j.checkpoints%every == 0 && j.dirty {
		return j.compact(r)
	}
	return SnapshotInfo{}, nil
}

// endRecord is the end frame's payload: what the snapshot's frames must
// add up to. The CRCs rule out disk corruption, so a mismatch on load is
// a writer/loader divergence, failed loudly instead of resuming with
// silently wrong spend.
type endRecord struct {
	Gen     uint64 `json:"gen"`
	Labels  int    `json:"labels"`
	Answers int    `json:"answers"`
}

// compact writes the next snapshot generation — every label entry the
// runner holds, closed by the end frame — installs it atomically, starts
// the generation's log and prunes what the two-deep fallback ladder no
// longer needs.
func (j *Journal) compact(r *crowd.Runner) (SnapshotInfo, error) {
	gen := j.gen + 1
	// The snapshot is framed in the (empty, just flushed) log buffer and
	// must be out of it again before anything returns.
	defer func() { j.buf = j.buf[:0] }()
	fail := func(err error) (SnapshotInfo, error) {
		return SnapshotInfo{}, fmt.Errorf("runsvc: snapshot g%d: %w", gen, err)
	}
	end := endRecord{Gen: gen}
	end.Labels, end.Answers = r.DumpLabelLog(func(e []byte) { j.frame(kindLabel, e) })
	if err := j.frameJSON(kindEnd, end); err != nil {
		return fail(err)
	}
	n, err := j.install(snapName(gen), j.buf)
	j.store.snapBytes.Add(int64(n))
	if err != nil {
		return fail(err)
	}
	j.store.snaps.Add(1)

	// The snapshot covers every record so far; what follows belongs to its
	// log. One directory fsync makes the rename and the new log's entry
	// durable together — either alone is a state Open and Replay handle.
	log, err := os.OpenFile(filepath.Join(j.dir, logName(gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	old := j.log
	j.log, j.gen, j.dirty = log, gen, false
	if err := old.Close(); err != nil {
		return fail(err)
	}
	if err := j.syncDir(); err != nil {
		return fail(err)
	}
	info := SnapshotInfo{Gen: gen, Bytes: int64(n), Labels: end.Labels}
	return info, j.prune()
}

// syncDir fsyncs the job directory so renamed and created entries are
// durable before pruning removes what they supersede.
func (j *Journal) syncDir() error {
	d, err := os.Open(j.dir)
	if err != nil {
		return err
	}
	err = j.sync(d, ".")
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// prune enforces retention after generation j.gen is installed: snapshots
// and logs older than gen-1 go (log.g(gen-1) is exactly the suffix
// snap.g(gen-1) needs should snap.g(gen) prove invalid), and all but the
// two newest matcher files.
func (j *Journal) prune() error {
	files, err := scanJob(j.dir)
	if err != nil {
		return err
	}
	var doomed []string
	for _, g := range files.snaps {
		if g+1 < j.gen {
			doomed = append(doomed, snapName(g))
		}
	}
	for _, g := range files.logs {
		if g+1 < j.gen {
			doomed = append(doomed, logName(g))
		}
	}
	if n := len(files.models); n > 2 {
		doomed = append(doomed, files.models[:n-2]...)
	}
	var errs []error
	for _, name := range doomed {
		errs = append(errs, j.cross(Op{Kind: OpRemove, File: name}, func([]byte) error {
			return os.Remove(filepath.Join(j.dir, name))
		}))
	}
	return errors.Join(errs...)
}

// Replayed counts what Replay restored: label frames applied, and the
// checkpoint frames seen in the replayed logs.
type Replayed struct {
	Labels, Checkpoints int
}

// read loads one journal file, feeding the replay-cost counters.
func (j *Journal) read(name string, isLog bool) ([]byte, error) {
	buf, err := os.ReadFile(filepath.Join(j.dir, name))
	j.store.bytesRead.Add(int64(len(buf)))
	if isLog {
		j.store.logBytesRead.Add(int64(len(buf)))
	}
	return buf, err
}

// readSnapshot loads and structurally validates one generation without
// touching any runner: every byte must decode as frames, the last frame
// must be the end frame, every other frame a label entry, and the end
// frame's generation and label count must match the file. That is what
// lets Replay fall back safely.
func (j *Journal) readSnapshot(gen uint64) ([]frame, endRecord, error) {
	var end endRecord
	buf, err := j.read(snapName(gen), false)
	if err != nil {
		return nil, end, err
	}
	frames, valid := decodeFrames(buf)
	n := len(frames) - 1
	if valid != len(buf) || n < 0 || frames[n].kind != kindEnd {
		return nil, end, fmt.Errorf("snapshot g%d: invalid frame at byte %d of %d", gen, valid, len(buf))
	}
	if err := json.Unmarshal(frames[n].payload, &end); err != nil {
		return nil, end, fmt.Errorf("snapshot g%d: end frame: %w", gen, err)
	}
	for _, f := range frames[:n] {
		if f.kind != kindLabel {
			return nil, end, fmt.Errorf("snapshot g%d: unexpected frame kind %q", gen, f.kind)
		}
	}
	if end.Gen != gen || end.Labels != n {
		return nil, end, fmt.Errorf("snapshot g%d: end frame %+v does not describe its %d label frames", gen, end, n)
	}
	return frames[:n], end, nil
}

// apply is the one replay loop: it feeds decoded frames, snapshot or log
// alike, into the runner.
func (j *Journal) apply(r *crowd.Runner, frames []frame, out *Replayed) error {
	for _, f := range frames {
		switch f.kind {
		case kindLabel:
			if err := r.LoadLabelEntry(f.payload); err != nil {
				return err
			}
			out.Labels++
		case kindCheckpoint:
			out.Checkpoints++
		default:
			return fmt.Errorf("unexpected frame kind %q", f.kind)
		}
	}
	return nil
}

// Replay loads the journal into a fresh runner: the newest snapshot
// generation that validates through its end frame, then every log of that
// generation or later, ascending — with no snapshot, every log from
// record zero. When the newest snapshot fails validation the previous one
// is tried, its longer log suffix making up the difference. If snapshots
// exist but none validates, Replay refuses rather than replay the logs
// alone: older logs were pruned, so that could under-restore paid state.
// It never writes.
func (j *Journal) Replay(r *crowd.Runner) (Replayed, error) {
	var out Replayed
	fail := func(err error) (Replayed, error) {
		return out, fmt.Errorf("runsvc: replay %s: %w", filepath.Base(j.dir), err)
	}
	files, err := scanJob(j.dir)
	if err != nil {
		return fail(err)
	}

	var from uint64
	var newestErr error
	restored := len(files.snaps) == 0
	for i := len(files.snaps) - 1; i >= 0 && !restored; i-- {
		frames, end, err := j.readSnapshot(files.snaps[i])
		if err != nil {
			j.store.snapFallbacks.Add(1)
			if newestErr == nil {
				newestErr = err
			}
			continue
		}
		if err := j.apply(r, frames, &out); err != nil {
			return fail(fmt.Errorf("snapshot g%d: %w", end.Gen, err))
		}
		if answers, _ := r.Restored(); answers != end.Answers {
			return fail(fmt.Errorf("snapshot g%d restored %d answers, end frame says %d",
				end.Gen, answers, end.Answers))
		}
		from, restored = end.Gen, true
	}
	if !restored {
		return fail(fmt.Errorf("no valid snapshot generation (newest failure: %w); "+
			"older logs were pruned, refusing a partial replay", newestErr))
	}

	for i, g := range files.logs {
		if g < from {
			continue
		}
		buf, err := j.read(logName(g), true)
		if err != nil {
			return fail(err)
		}
		frames, valid := decodeFrames(buf)
		if valid < len(buf) && i < len(files.logs)-1 {
			return fail(fmt.Errorf("%s: invalid frame at byte %d of %d with newer logs after it",
				logName(g), valid, len(buf)))
		}
		if err := j.apply(r, frames, &out); err != nil {
			return fail(fmt.Errorf("%s: %w", logName(g), err))
		}
	}
	return out, nil
}

// specRecord is the stored form of a job's description.
type specRecord struct {
	Name string `json:"name"`
	// Meta is nil for library-submitted jobs that carry no serializable
	// description; such jobs resume only via Manager.ResumeSpec.
	Meta *Meta `json:"meta"`
}

// WriteSpec records the job description (idempotent; first write wins so a
// resumed job cannot alter its own history).
func (j *Journal) WriteSpec(name string, meta *Meta) error {
	path := filepath.Join(j.dir, "spec.json")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return writeFileAtomic(path, specRecord{Name: name, Meta: meta})
}

// ReadSpec loads the stored job description.
func (j *Journal) ReadSpec() (specRecord, error) {
	var rec specRecord
	buf, err := os.ReadFile(filepath.Join(j.dir, "spec.json"))
	if err != nil {
		return rec, fmt.Errorf("runsvc: read spec: %w", err)
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		return rec, fmt.Errorf("runsvc: decode spec: %w", err)
	}
	return rec, nil
}

// StatusRecord is the terminal state written to status.json.
type StatusRecord struct {
	State       State   `json:"state"`
	StopReason  string  `json:"stop_reason,omitempty"`
	Error       string  `json:"error,omitempty"`
	Matches     int     `json:"matches"`
	EstimatedF1 float64 `json:"estimated_f1"`
	TrueF1      float64 `json:"true_f1,omitempty"`
	Answers     int     `json:"answers"`
	Pairs       int     `json:"pairs"`
	Cost        float64 `json:"cost"`
	Iterations  int     `json:"iterations"`
	Finished    string  `json:"finished"`
}

// WriteStatus atomically records the job's terminal state.
func (j *Journal) WriteStatus(rec StatusRecord) error {
	rec.Finished = time.Now().UTC().Format(time.RFC3339)
	return writeFileAtomic(filepath.Join(j.dir, "status.json"), rec)
}

// ReadStatus loads the terminal status, if one was written.
func (j *Journal) ReadStatus() (StatusRecord, bool) {
	var rec StatusRecord
	buf, err := os.ReadFile(filepath.Join(j.dir, "status.json"))
	if err != nil || json.Unmarshal(buf, &rec) != nil {
		return rec, false
	}
	return rec, true
}

// writeFileAtomic writes v as indented JSON via a temp file + rename, so
// readers never observe a torn file. It serves the write-once side files
// (spec, status), which are written outside the executor's crash recovery
// and therefore outside the fault seam.
func writeFileAtomic(path string, v interface{}) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", " ")
	err = enc.Encode(v)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

package crowd

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/record"
)

// entryLog collects emitted cache entries in order, the way a journal
// frames them, and replays them through LoadLabelEntry.
type entryLog [][]byte

func (l *entryLog) emit(e []byte) { *l = append(*l, bytes.Clone(e)) }

func (l entryLog) load(t *testing.T, r *Runner) {
	t.Helper()
	for _, e := range l {
		if err := r.LoadLabelEntry(e); err != nil {
			t.Fatalf("LoadLabelEntry(%s): %v", e, err)
		}
	}
}

func TestSaveLoadLabels(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r1.SeedLabels([]record.Labeled{{Pair: record.P(9, 9), Match: true}})
	r1.Label(record.P(0, 0), PolicyHybrid) // positive, strong-settled
	r1.Label(record.P(0, 1), Policy21)     // negative, 2+1-settled

	var buf bytes.Buffer
	if err := r1.SaveLabels(&buf); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(&Oracle{Truth: truth}, 0.01)
	n, err := r2.LoadLabels(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d entries, want 3", n)
	}
	// Cached labels must serve without soliciting new answers.
	if lbl := r2.Label(record.P(0, 0), PolicyHybrid); !lbl {
		t.Error("restored positive label lost")
	}
	if lbl := r2.Label(record.P(0, 1), Policy21); lbl {
		t.Error("restored negative label lost")
	}
	if lbl := r2.Label(record.P(9, 9), PolicyStrong); !lbl {
		t.Error("restored seed label lost")
	}
	if r2.Stats().Answers != 0 || r2.Stats().Cost != 0 {
		t.Errorf("restored labels cost money: %+v", r2.Stats())
	}
	// A 2+1 negative does NOT satisfy strong; upgrading solicits answers.
	r2.Label(record.P(0, 1), PolicyStrong)
	if r2.Stats().Answers == 0 {
		t.Error("strong upgrade of a 2+1 label should solicit answers")
	}
}

func TestLoadLabelsKeepsExisting(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r1.Label(record.P(0, 0), Policy21)
	var buf bytes.Buffer
	if err := r1.SaveLabels(&buf); err != nil {
		t.Fatal(err)
	}
	// r2 already has a conflicting (seed) label; load must not clobber it.
	r2 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r2.SeedLabels([]record.Labeled{{Pair: record.P(0, 0), Match: false}})
	if _, err := r2.LoadLabels(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if lbl := r2.Label(record.P(0, 0), Policy21); lbl {
		t.Error("load clobbered an existing entry")
	}
}

// TestAppendLabelsRoundTripInFlight covers the incremental journal path
// with entries in every vote state, including unsettled in-flight votes —
// answers solicited but the stopping rule not yet met — which SaveLabels'
// settled-only snapshot never carries.
func TestAppendLabelsRoundTripInFlight(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r1.SeedLabels([]record.Labeled{{Pair: record.P(9, 9), Match: true}})
	r1.Label(record.P(0, 0), PolicyHybrid) // positive, strong-settled
	r1.Label(record.P(0, 1), Policy21)     // negative, 2+1-settled
	// An in-flight entry: one vote collected, crash before the second.
	r1.cache[record.P(1, 2)] = &entry{answers: []bool{false}}
	r1.markDirty(record.P(1, 2))

	var log entryLog
	if n := r1.AppendLabels(log.emit); n != 4 || len(log) != 4 {
		t.Fatalf("appended %d entries (%d emitted), want 4", n, len(log))
	}
	// A second append with nothing new is empty — the dirty set cleared.
	if n := r1.AppendLabels(func([]byte) { t.Error("re-append emitted an entry") }); n != 0 {
		t.Fatalf("re-append wrote %d entries, want 0", n)
	}

	r2 := NewRunner(&Oracle{Truth: truth}, 0.01)
	log.load(t, r2)
	// Settled entries serve without re-soliciting, and replay restores the
	// journaled spend (every logged answer was paid for by the same job):
	// 6 answers across the three crowd-voted entries, none for the seed.
	restored := r2.Stats()
	if restored.Answers != 6 || math.Abs(restored.Cost-0.06) > 1e-9 {
		t.Errorf("restored accounting = %+v, want 6 answers at $0.06", restored)
	}
	if restored.Pairs != 3 {
		t.Errorf("restored Pairs = %d, want 3 (seed excluded)", restored.Pairs)
	}
	if lbl := r2.Label(record.P(0, 0), PolicyHybrid); !lbl {
		t.Error("restored positive label lost")
	}
	if lbl := r2.Label(record.P(9, 9), PolicyStrong); !lbl {
		t.Error("restored seed label lost")
	}
	if st := r2.Stats(); st.Answers != restored.Answers || st.Cost != restored.Cost {
		t.Errorf("serving restored labels solicited new answers: %+v", st)
	}
	// The in-flight entry must not satisfy any policy yet...
	if _, ok := r2.Cached(record.P(1, 2), Policy21); ok {
		t.Error("in-flight entry served as settled")
	}
	// ...and settling it tops up from the surviving vote instead of
	// starting over: one more answer reaches the two 2+1 needs.
	r2.Label(record.P(1, 2), Policy21)
	if got := r2.Stats().Answers - restored.Answers; got != 1 {
		t.Errorf("topping up an in-flight 1-vote entry took %d answers, want 1", got)
	}
}

// TestAppendLabelsSupersede verifies append-only update semantics: when an
// entry gains answers and is re-appended, replaying the log keeps the
// latest version.
func TestAppendLabelsSupersede(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	var log entryLog
	r1.Label(record.P(0, 1), Policy21) // negative at 2+1
	r1.AppendLabels(log.emit)
	r1.Label(record.P(0, 1), PolicyStrong) // upgraded: more answers
	r1.AppendLabels(log.emit)

	r2 := NewRunner(&Oracle{Truth: truth}, 0.01)
	log.load(t, r2)
	if _, ok := r2.Cached(record.P(0, 1), PolicyStrong); !ok {
		t.Error("superseding log entry lost: strong settle not restored")
	}
	if r2.Stats().Pairs != 1 {
		t.Errorf("two log entries for one pair counted as %d pairs", r2.Stats().Pairs)
	}
	// Accounting restore is delta-based: the superseding entry repeats the
	// pair's cumulative answers, which must not be double-counted.
	if r2.Stats().Answers != r1.Stats().Answers {
		t.Errorf("restored %d answers, original paid %d", r2.Stats().Answers, r1.Stats().Answers)
	}
	if r2.Stats().Cost != r1.Stats().Cost {
		t.Errorf("restored cost %v, original paid %v", r2.Stats().Cost, r1.Stats().Cost)
	}
}

// TestLoadLabelLogOverlapMonotonic replays history a restored state
// already covers: the full dump (the pair restored at its final answer
// count) followed by the incremental log that led up to it, which still
// holds the pair's earlier cumulative entries. The journal's layout no
// longer produces this overlap, but LoadLabelEntry stays monotone per
// pair regardless: a stale entry must neither regress the cache nor set up
// the pair's later entry to re-charge answers already restored — the
// over-replay must converge at exactly zero extra cost.
func TestLoadLabelLogOverlapMonotonic(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	var live entryLog
	r1.Label(record.P(0, 1), Policy21) // two answers, 2+1-settled
	r1.AppendLabels(live.emit)
	r1.Label(record.P(0, 1), PolicyStrong) // topped up: more answers
	r1.AppendLabels(live.emit)
	// The snapshot a checkpoint would write right after those flushes.
	var snap entryLog
	r1.DumpLabelLog(snap.emit)

	r2 := NewRunner(&Oracle{Truth: truth}, 0.01)
	snap.load(t, r2)
	afterSnap := r2.Stats()
	if afterSnap.Answers != r1.Stats().Answers {
		t.Fatalf("snapshot restore = %d answers, original paid %d",
			afterSnap.Answers, r1.Stats().Answers)
	}
	// Replay the overlapping log on top: both cumulative entries, including
	// the stale first one.
	live.load(t, r2)
	if got := r2.Stats(); got != afterSnap {
		t.Errorf("overlap replay changed accounting: %+v, want %+v (zero extra cost)",
			got, afterSnap)
	}
	if _, ok := r2.Cached(record.P(0, 1), PolicyStrong); !ok {
		t.Error("overlap replay regressed the entry below its strong settle")
	}
}

// TestLoadLabelLogRejectsGarbage: an entry that does not decode, or that
// carries a vote state no writer produces, fails the load. (Torn tails
// never reach LoadLabelEntry: the journal's frame decoder drops them.)
func TestLoadLabelLogRejectsGarbage(t *testing.T) {
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	if err := r.LoadLabelEntry([]byte("not json")); err == nil {
		t.Error("garbage entry accepted")
	}
	if err := r.LoadLabelEntry([]byte(`{"a":0,"b":0,"settled":99}`)); err == nil {
		t.Error("invalid vote state accepted")
	}
	if st := r.Stats(); st.Answers != 0 || st.Pairs != 0 {
		t.Errorf("rejected entries changed accounting: %+v", st)
	}
}

func TestLoadLabelsRejectsGarbage(t *testing.T) {
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	if _, err := r.LoadLabels(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := r.LoadLabels(strings.NewReader(`[{"a":0,"b":0,"settled":99}]`)); err == nil {
		t.Error("invalid vote state accepted")
	}
}

// TestDumpLabelLogSnapshot pins the snapshot writer's contract: DumpLabelLog
// emits the whole cache (settled, in-flight, seed) in the AppendLabels entry
// encoding, LoadLabelEntry over the dump alone restores labels and accounting
// bit-identically, and the dirty set is untouched — a snapshot is a read,
// not a flush.
func TestDumpLabelLogSnapshot(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r1.SeedLabels([]record.Labeled{{Pair: record.P(9, 9), Match: true}})
	r1.Label(record.P(0, 0), PolicyHybrid)
	r1.Label(record.P(0, 1), Policy21)
	r1.cache[record.P(1, 2)] = &entry{answers: []bool{false}} // in-flight
	r1.markDirty(record.P(1, 2))

	var snap entryLog
	if n := r1.DumpLabelLog(snap.emit); n != 4 || len(snap) != 4 {
		t.Fatalf("dumped %d entries (%d emitted), want 4 (3 crowd + 1 seed)", n, len(snap))
	}
	// The dump is a snapshot, not a flush: the dirty in-flight entry still
	// lands in the next incremental append.
	if n := r1.AppendLabels(func([]byte) {}); n == 0 {
		t.Fatal("append after dump wrote nothing, want the dirty set intact")
	}

	r2 := NewRunner(&Oracle{Truth: truth}, 0.01)
	snap.load(t, r2)
	// Replay pays for every logged answer: 6 across the three crowd-voted
	// entries (the hand-injected in-flight vote included), seed free.
	got := r2.Stats()
	if got.Answers != 6 || got.Pairs != 3 || math.Abs(got.Cost-0.06) > 1e-9 {
		t.Errorf("restored accounting = %+v, want 6 answers over 3 pairs at $0.06", got)
	}
	if lbl, ok := r2.Cached(record.P(0, 0), PolicyHybrid); !ok || !lbl {
		t.Error("settled positive label lost in dump round-trip")
	}
	if lbl, ok := r2.Cached(record.P(9, 9), PolicyStrong); !ok || !lbl {
		t.Error("seed label lost in dump round-trip")
	}
	if _, ok := r2.Cached(record.P(1, 2), Policy21); ok {
		t.Error("in-flight entry served as settled after dump round-trip")
	}
	// Dumping the restored runner reproduces the identical bytes: the
	// format is canonical (sorted by pair), so snapshot-of-snapshot is a
	// fixed point.
	var snap2 entryLog
	r2.DumpLabelLog(snap2.emit)
	if !reflect.DeepEqual(snap, snap2) {
		t.Error("dump of restored runner differs from original dump")
	}
	// And a second restore lands on bit-identical accounting — the
	// property the runsvc snapshot end-frame cross-check relies on.
	r3 := NewRunner(&Oracle{Truth: truth}, 0.01)
	snap2.load(t, r3)
	st2, st3 := r2.Stats(), r3.Stats()
	if st3.Answers != st2.Answers || st3.Pairs != st2.Pairs ||
		math.Float64bits(st3.Cost) != math.Float64bits(st2.Cost) {
		t.Errorf("second restore %+v not bit-identical to first %+v", st3, st2)
	}
}

package crowd

import (
	"bytes"
	"math"
	"reflect"
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

// callCounter is an oracle crowd that counts the questions it is asked.
type callCounter struct {
	Oracle
	calls int
}

func (c *callCounter) Answer(p record.Pair) bool {
	c.calls++
	return c.Oracle.Answer(p)
}

// priceOf is the cost of n answers accumulated one at a time, as the
// runner accumulates it.
func priceOf(n int, price float64) float64 {
	cost := 0.0
	for i := 0; i < n; i++ {
		cost += price
	}
	return cost
}

// TestAppendLabelsRoundTripInFlight covers the incremental journal path
// with a seed, settled entries and an unsettled in-flight vote, and the
// resume contract on the replaying side: re-asking a restored pair makes
// no crowd call and charges its answers in order at the runner's price; a
// pair goes live only past its restored answers; and at that first live
// question every restored answer not yet re-asked is charged at once and
// served free afterwards.
func TestAppendLabelsRoundTripInFlight(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r1.SeedLabels([]record.Labeled{{Pair: record.P(9, 9), Match: true}})
	r1.Label(record.P(0, 0), PolicyHybrid) // positive, strong-settled: 3 answers
	r1.Label(record.P(0, 1), Policy21)     // negative, 2+1-settled: 2 answers
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

	c := &callCounter{Oracle: Oracle{Truth: truth}}
	r2 := NewRunner(c, 0.01)
	log.load(t, r2)
	if answers, pairs := r2.Restored(); answers != 6 || pairs != 3 {
		t.Errorf("restored %d answers over %d pairs, want 6 over 3 (seed excluded)", answers, pairs)
	}
	if st := r2.Stats(); st != (Accounting{}) {
		t.Errorf("restore alone charged %+v; answers are charged as they are re-asked", st)
	}

	// Re-asking a restored pair serves its answers in order and charges
	// each at the runner's price; the seed stays free.
	if !r2.Label(record.P(0, 0), PolicyHybrid) || !r2.Label(record.P(9, 9), PolicyStrong) {
		t.Error("restored positive or seed label lost")
	}
	if st := r2.Stats(); c.calls != 0 || st.Answers != 3 || st.Pairs != 1 ||
		math.Float64bits(st.Cost) != math.Float64bits(priceOf(3, 0.01)) {
		t.Errorf("re-asking (0,0): %d crowd calls, accounting %+v; want 0 calls, 3 answers over 1 pair", c.calls, st)
	}

	// The in-flight pair tops up from its surviving vote: one answer
	// served, one asked live. That first live question charges the 2
	// restored answers of (0,1), which this run has not re-asked yet.
	if r2.Label(record.P(1, 2), Policy21) {
		t.Error("in-flight negative settled positive")
	}
	if st := r2.Stats(); c.calls != 1 || st.Answers != 7 || st.Pairs != 3 {
		t.Errorf("after the first live question: %d crowd calls, accounting %+v; want 1 call, 7 answers over 3 pairs",
			c.calls, st)
	}
	// ...and (0,1), already charged, is served free.
	if r2.Label(record.P(0, 1), Policy21) {
		t.Error("restored negative label lost")
	}
	if st := r2.Stats(); c.calls != 1 || st.Answers != 7 || st.Pairs != 3 ||
		math.Float64bits(st.Cost) != math.Float64bits(priceOf(7, 0.01)) {
		t.Errorf("re-asking a charged pair: %d crowd calls, accounting %+v; want it free", c.calls, st)
	}
	// Only the pair that gained a live answer is journaled again.
	var again entryLog
	if n := r2.AppendLabels(again.emit); n != 1 || string(again[0]) != `{"a":1,"b":2,"answers":[false,false]}` {
		t.Errorf("resumed runner appended %d entries %q, want the topped-up in-flight pair alone", n, again)
	}
}

// TestAppendLabelsSupersede verifies append-only update semantics: when an
// entry gains answers and is re-appended, replaying the log keeps the
// latest version, and re-asking the pair charges each answer once.
func TestAppendLabelsSupersede(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	var log entryLog
	r1.Label(record.P(0, 1), Policy21) // negative at 2+1
	r1.AppendLabels(log.emit)
	r1.Label(record.P(0, 1), PolicyStrong) // upgraded: more answers
	r1.AppendLabels(log.emit)

	c := &callCounter{Oracle: Oracle{Truth: truth}}
	r2 := NewRunner(c, 0.01)
	log.load(t, r2)
	if answers, pairs := r2.Restored(); answers != r1.Stats().Answers || pairs != 1 {
		t.Errorf("restored %d answers over %d pairs, original paid %d over 1", answers, pairs, r1.Stats().Answers)
	}
	// The superseding entry repeats the pair's cumulative answers, which
	// must not be double-counted.
	r2.Label(record.P(0, 1), PolicyStrong)
	if c.calls != 0 || r2.Stats() != r1.Stats() {
		t.Errorf("re-asking: %d crowd calls, accounting %+v; original %+v", c.calls, r2.Stats(), r1.Stats())
	}
}

// TestLoadLabelLogOverlapMonotonic replays history a restored state
// already covers: the full dump (the pair restored at its final answer
// count) followed by the incremental log that led up to it, which still
// holds the pair's earlier cumulative entries. The journal's layout does
// not produce this overlap, but LoadLabelEntry stays monotone per pair
// regardless: a stale entry must neither shrink the restored answers nor
// make re-asking the pair cost more.
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

	c := &callCounter{Oracle: Oracle{Truth: truth}}
	r2 := NewRunner(c, 0.01)
	snap.load(t, r2)
	// Replay the overlapping log on top: both cumulative entries, including
	// the stale first one.
	live.load(t, r2)
	if answers, _ := r2.Restored(); answers != r1.Stats().Answers {
		t.Errorf("overlap replay restored %d answers, original paid %d", answers, r1.Stats().Answers)
	}
	var dump entryLog
	r2.DumpLabelLog(dump.emit)
	if !reflect.DeepEqual(dump, snap) {
		t.Errorf("overlap replay changed the restored state: dump %q, want %q", dump, snap)
	}
	r2.Label(record.P(0, 1), PolicyStrong)
	if c.calls != 0 || r2.Stats() != r1.Stats() {
		t.Errorf("re-asking after overlap replay: %d crowd calls, accounting %+v; original %+v",
			c.calls, r2.Stats(), r1.Stats())
	}
}

// TestLoadLabelLogRejectsGarbage: an entry that does not decode, or that
// is neither a seed label nor a list of answers, fails the load and
// restores nothing. (Torn tails never reach LoadLabelEntry: the journal's
// frame decoder drops them.)
func TestLoadLabelLogRejectsGarbage(t *testing.T) {
	r := NewRunner(&Oracle{Truth: truth2()}, 0.01)
	for _, bad := range []string{
		`not json`,
		`{"a":0,"b":0}`, // no answers
		`{"a":0,"b":0,"answers":[true],"label":true}`,     // a vote record with a label
		`{"a":0,"b":0,"seed":true,"answers":[true,true]}`, // a seed with answers
	} {
		if err := r.LoadLabelEntry([]byte(bad)); err == nil {
			t.Errorf("entry %s accepted", bad)
		}
	}
	if answers, pairs := r.Restored(); answers != 0 || pairs != 0 || len(r.cache) != 0 {
		t.Errorf("rejected entries restored %d answers over %d pairs, %d cache entries", answers, pairs, len(r.cache))
	}
}

// TestDumpLabelLogSnapshot pins the snapshot writer's contract: DumpLabelLog
// emits every pair with answers (settled or in flight) and every seed in
// the AppendLabels entry encoding, LoadLabelEntry over the dump alone
// restores the same entries — a restored runner dumps identical bytes
// before and after re-asking them — and the dirty set is untouched: a
// snapshot is a read, not a flush.
func TestDumpLabelLogSnapshot(t *testing.T) {
	truth := truth2()
	r1 := NewRunner(&Oracle{Truth: truth}, 0.01)
	r1.SeedLabels([]record.Labeled{{Pair: record.P(9, 9), Match: true}})
	r1.Label(record.P(0, 0), PolicyHybrid)
	r1.Label(record.P(0, 1), Policy21)
	r1.cache[record.P(1, 2)] = &entry{answers: []bool{false}} // in-flight
	r1.markDirty(record.P(1, 2))

	var snap entryLog
	if n, answers := r1.DumpLabelLog(snap.emit); n != 4 || answers != 6 || len(snap) != 4 {
		t.Fatalf("dumped %d entries with %d answers (%d emitted), want 4 (3 crowd + 1 seed) with 6", n, answers, len(snap))
	}
	// The dump is a snapshot, not a flush: the dirty in-flight entry still
	// lands in the next incremental append.
	if n := r1.AppendLabels(func([]byte) {}); n == 0 {
		t.Fatal("append after dump wrote nothing, want the dirty set intact")
	}

	c := &callCounter{Oracle: Oracle{Truth: truth}}
	r2 := NewRunner(c, 0.01)
	snap.load(t, r2)
	if answers, pairs := r2.Restored(); answers != 6 || pairs != 3 {
		t.Errorf("restored %d answers over %d pairs, want 6 over 3", answers, pairs)
	}
	// The format is canonical (sorted by pair), so snapshot-of-snapshot is
	// a fixed point, and a second restore restores the same.
	var snap2 entryLog
	if n, answers := r2.DumpLabelLog(snap2.emit); n != 4 || answers != 6 || !reflect.DeepEqual(snap, snap2) {
		t.Errorf("dump of restored runner (%d entries, %d answers) differs from original dump", n, answers)
	}
	r3 := NewRunner(&Oracle{Truth: truth}, 0.01)
	snap2.load(t, r3)
	if a2, p2 := r2.Restored(); !reflect.DeepEqual(r3.paid, r2.paid) || a2 != 6 || p2 != 3 {
		t.Error("second restore differs from the first")
	}

	// Re-asking the settled pairs retraces r1's spend bit for bit, and the
	// dump still holds every entry, the in-flight vote not yet re-asked
	// included.
	if !r2.Label(record.P(0, 0), PolicyHybrid) || r2.Label(record.P(0, 1), Policy21) {
		t.Error("settled labels lost in dump round-trip")
	}
	if c.calls != 0 || r2.Stats() != r1.Stats() {
		t.Errorf("re-asking: %d crowd calls, accounting %+v; original %+v", c.calls, r2.Stats(), r1.Stats())
	}
	var snap3 entryLog
	r2.DumpLabelLog(snap3.emit)
	if !reflect.DeepEqual(snap, snap3) {
		t.Error("dump after re-asking differs from the restored dump")
	}
}

package crowd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/corleone-em/corleone/internal/record"
)

// savedEntry is the serialized form of one cached labeling.
type savedEntry struct {
	A       int32  `json:"a"`
	B       int32  `json:"b"`
	Answers []bool `json:"answers,omitempty"`
	Label   bool   `json:"label"`
	Settled int    `json:"settled"`
	Seed    bool   `json:"seed,omitempty"`
}

// voteStateUnsettled is the Settled encoding for an entry whose votes are
// still in flight: answers were collected but no stopping rule completed
// (a cancel interrupted voting). Such entries never serve from cache; a
// resumed run tops their votes up.
const voteStateUnsettled = -1

// voteState encodes an entry's settle state for serialization.
func voteState(e *entry) int {
	if !e.voted && !e.hasSeed {
		return voteStateUnsettled
	}
	return int(e.settled)
}

// saved is the serialized form of one cache entry — the one entry codec
// behind SaveLabels, the journal's incremental flush (AppendLabels) and
// its compaction dump (DumpLabelLog).
func saved(p record.Pair, e *entry) savedEntry {
	return savedEntry{
		A:       p.A,
		B:       p.B,
		Answers: e.answers,
		Label:   e.label,
		Settled: voteState(e),
		Seed:    e.hasSeed,
	}
}

// entry decodes the serialized form, rejecting vote states no writer
// produces.
func (s savedEntry) entry() (*entry, error) {
	if s.Settled < voteStateUnsettled || s.Settled > int(PolicyHybrid) {
		return nil, fmt.Errorf("crowd: entry %d:%d has invalid vote state %d", s.A, s.B, s.Settled)
	}
	settled := Policy(s.Settled)
	if s.Settled == voteStateUnsettled {
		settled = Policy21
	}
	return &entry{
		answers: s.Answers,
		label:   s.Label,
		settled: settled,
		voted:   s.Settled != voteStateUnsettled,
		hasSeed: s.Seed,
	}, nil
}

// SaveLabels serializes the runner's label cache (every answer collected,
// vote states, seeds) as JSON. Crowd labels are paid for; persisting them
// lets a resumed or re-configured run reuse them at zero cost — the §8.3
// cache made durable.
func (r *Runner) SaveLabels(w io.Writer) error {
	var out []savedEntry
	for _, l := range r.AllLabeled() {
		out = append(out, saved(l.Pair, r.cache[l.Pair]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// emitEntries hands emit the encoding of each listed pair's cache entry,
// one JSON object per call; the bytes are only valid during the call.
// Callers pass the pairs sorted, so the output is deterministic.
func (r *Runner) emitEntries(pairs []record.Pair, emit func(entry []byte)) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range pairs {
		buf.Reset()
		// savedEntry holds only integers, booleans and a bool slice, and a
		// bytes.Buffer never fails a write, so Encode cannot fail here.
		if err := enc.Encode(saved(p, r.cache[p])); err != nil {
			panic(fmt.Sprintf("crowd: encode cache entry %v: %v", p, err))
		}
		emit(buf.Bytes()[:buf.Len()-1]) // without Encode's trailing newline
	}
}

// AppendLabels emits every cache entry mutated since the last call — the
// incremental form of SaveLabels for append-only journals — and clears
// the dirty set. Unsettled in-flight entries (answers solicited but the
// policy's stopping rule not yet met) are emitted too, so a resumed run
// tops up their votes instead of re-paying from scratch. Returns the
// number of entries emitted.
func (r *Runner) AppendLabels(emit func(entry []byte)) int {
	r.sinceFlush = 0
	pairs := make([]record.Pair, 0, len(r.dirty))
	for p := range r.dirty {
		pairs = append(pairs, p)
	}
	record.SortPairs(pairs)
	r.emitEntries(pairs, emit)
	clear(r.dirty)
	return len(pairs)
}

// DumpLabelLog emits the runner's entire label cache — every entry, not
// just the dirty set — in the AppendLabels encoding. It is the compaction
// form of the label log: feeding the dump back through LoadLabelEntry
// restores the full cache and the full accounting (answers, pairs, cost)
// bit-identically, so a snapshot built from it can replace an arbitrarily
// long log prefix. The dirty set is left untouched: dumping is not
// flushing, and entries mutated since the last append still belong to the
// next incremental flush. Returns the number of entries emitted.
func (r *Runner) DumpLabelLog(emit func(entry []byte)) int {
	pairs := make([]record.Pair, 0, len(r.cache))
	for p := range r.cache {
		pairs = append(pairs, p)
	}
	record.SortPairs(pairs)
	r.emitEntries(pairs, emit)
	return len(pairs)
}

// LoadLabelEntry replays one entry emitted by AppendLabels or
// DumpLabelLog. A later entry supersedes an earlier one for the same pair
// (an entry is re-emitted whenever it gains answers or settles harder).
// Loaded entries do not count as dirty — they are already durable.
//
// Replay restores the full accounting, not just the cache: every journaled
// answer was paid for by an earlier session of the SAME job, so Answers
// and Cost (answers × the runner's price) resume where the killed process
// left off — a resumed run's Config.Budget caps cumulative spend, not
// per-process spend. (Cross-job label reuse goes through LoadLabels, which
// deliberately adds no cost.)
//
// Replay is monotonic per pair: an entry carrying strictly fewer answers
// than the cache already holds for its pair is skipped outright. Genuine
// histories only ever grow a pair's answer set, so such an entry is stale
// history replayed on top of state that already covers it; applying it
// would regress the cache and let the pair's next cumulative entry
// re-charge answers already restored. Skipping keeps every delta
// non-negative, so over-replay of covered history charges exactly zero.
func (r *Runner) LoadLabelEntry(buf []byte) error {
	var s savedEntry
	if err := json.Unmarshal(buf, &s); err != nil {
		return fmt.Errorf("crowd: load label entry: %w", err)
	}
	e, err := s.entry()
	if err != nil {
		return err
	}
	p := record.Pair{A: s.A, B: s.B}
	prev, exists := r.cache[p]
	paid := len(e.answers)
	switch {
	case !exists:
		// Seeds are excluded: a live run never counts them either.
		if !e.hasSeed {
			r.acct.Pairs++
		}
	case paid < len(prev.answers):
		return nil // stale: see the monotonicity note above
	default:
		// A superseding entry carries the pair's cumulative answers; only
		// the delta beyond what is already restored is newly paid spend.
		paid -= len(prev.answers)
	}
	r.acct.Answers += paid
	// Accumulate per answer, exactly as solicit does, so a resumed run's
	// Cost is bit-identical to the uninterrupted run's.
	for i := 0; i < paid; i++ {
		r.acct.Cost += r.price
	}
	r.cache[p] = e
	return nil
}

// RestoreHITs raises the HIT counter to n, a journaled cumulative count.
// Used on resume: replayed training batches serve from cache and never
// re-post HITs, so the counter is restored from the journal instead of
// recounted.
func (r *Runner) RestoreHITs(n int) {
	if n > r.acct.HITs {
		r.acct.HITs = n
	}
}

// LoadLabels merges previously saved labels into the cache. Existing
// entries are kept (the live cache may have more answers than the file).
// Returns the number of entries loaded.
func (r *Runner) LoadLabels(rd io.Reader) (int, error) {
	var in []savedEntry
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return 0, fmt.Errorf("crowd: load labels: %w", err)
	}
	n := 0
	for _, s := range in {
		p := record.Pair{A: s.A, B: s.B}
		if _, exists := r.cache[p]; exists {
			continue
		}
		e, err := s.entry()
		if err != nil {
			return n, err
		}
		r.cache[p] = e
		// Loaded labels were paid for in an earlier session; they count as
		// labeled pairs for reporting but add no new cost.
		r.acct.Pairs++
		n++
	}
	return n, nil
}

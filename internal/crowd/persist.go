package crowd

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/corleone-em/corleone/internal/record"
)

// savedEntry is the journal form of one pair: every answer paid for it, in
// the order it was asked, or, for a user-supplied seed, its label. No vote
// state is stored — a resumed run re-derives the vote by re-asking the
// pair (see LoadLabelEntry).
type savedEntry struct {
	A       int32  `json:"a"`
	B       int32  `json:"b"`
	Answers []bool `json:"answers,omitempty"`
	Seed    bool   `json:"seed,omitempty"`
	Label   bool   `json:"label,omitempty"`
}

// saved is the one entry codec behind the journal's incremental flush
// (AppendLabels) and its compaction dump (DumpLabelLog). A pair's answers
// are the longer of what this run asked and what the journal restored:
// one is always a prefix of the other, because solicit serves every
// restored answer before it asks the crowd.
func (r *Runner) saved(p record.Pair) savedEntry {
	s := savedEntry{A: p.A, B: p.B, Answers: r.paid[p]}
	if e, ok := r.cache[p]; ok {
		if e.hasSeed {
			return savedEntry{A: p.A, B: p.B, Seed: true, Label: e.label}
		}
		if len(e.answers) > len(s.Answers) {
			s.Answers = e.answers
		}
	}
	return s
}

// emitEntries hands emit the encoding of each listed pair's entry, one
// JSON object per call; the bytes are only valid during the call. Callers
// pass the pairs sorted, so the output is deterministic. Returns the
// number of answers emitted.
func (r *Runner) emitEntries(pairs []record.Pair, emit func(entry []byte)) (answers int) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range pairs {
		buf.Reset()
		s := r.saved(p)
		// savedEntry holds only integers, booleans and a bool slice, and a
		// bytes.Buffer never fails a write, so Encode cannot fail here.
		if err := enc.Encode(s); err != nil {
			panic(fmt.Sprintf("crowd: encode cache entry %v: %v", p, err))
		}
		emit(buf.Bytes()[:buf.Len()-1]) // without Encode's trailing newline
		answers += len(s.Answers)
	}
	return answers
}

// AppendLabels emits the entry of every pair that gained a live answer
// (or a seed) since the last call — the incremental journal flush — and
// clears the dirty set. Each entry carries the pair's cumulative answers,
// unsettled in-flight votes included, so a resumed run tops them up
// instead of re-paying from scratch. Returns the number of entries
// emitted.
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

// DumpLabelLog emits every pair the runner holds answers for — asked this
// run or restored and not yet re-asked — and every seed, in the
// AppendLabels encoding. It is the compaction form of the label log:
// feeding the dump back through LoadLabelEntry restores the same entries,
// so a snapshot built from it can replace an arbitrarily long log prefix.
// The dirty set is left untouched: dumping is not flushing. Returns the
// number of entries and of answers emitted.
func (r *Runner) DumpLabelLog(emit func(entry []byte)) (entries, answers int) {
	pairs := make([]record.Pair, 0, len(r.cache)+len(r.paid))
	for p, e := range r.cache {
		if e.hasSeed || len(e.answers) > 0 {
			pairs = append(pairs, p)
		}
	}
	for p := range r.paid {
		if e, ok := r.cache[p]; !ok || !e.hasSeed && len(e.answers) == 0 {
			pairs = append(pairs, p)
		}
	}
	record.SortPairs(pairs)
	return len(pairs), r.emitEntries(pairs, emit)
}

// LoadLabelEntry restores one entry emitted by AppendLabels or
// DumpLabelLog into a runner before its run starts. A seed enters the
// cache. A pair's answers go to the runner's restored answers, not the
// cache: the run re-asks the pair exactly when the journaled run did, and
// solicit then serves the restored answers in order and charges each one
// as it serves it. So the resumed run re-derives every vote, HIT packing,
// Accounting field and phase count of the run it continues, and its
// Config.Budget caps cumulative spend across kills. chargeRestored covers
// the restored answers a resumed run never re-asks.
//
// A later entry supersedes an earlier one for the same pair (an entry is
// re-emitted whenever the pair gains answers); one carrying no more
// answers than are already restored is stale history and skipped, so
// over-replay of covered history restores nothing twice.
func (r *Runner) LoadLabelEntry(buf []byte) error {
	var s savedEntry
	if err := json.Unmarshal(buf, &s); err != nil {
		return fmt.Errorf("crowd: load label entry: %w", err)
	}
	p := record.Pair{A: s.A, B: s.B}
	switch {
	case s.Seed && len(s.Answers) == 0:
		r.cache[p] = seedEntry(s.Label)
	case s.Seed || s.Label || len(s.Answers) == 0:
		return fmt.Errorf("crowd: entry %d:%d is neither a seed label nor a list of answers", s.A, s.B)
	case len(s.Answers) > len(r.paid[p]):
		if r.paid == nil {
			r.paid = make(map[record.Pair][]bool)
		}
		r.paid[p] = s.Answers
	}
	return nil
}

// Restored reports the answers and pairs LoadLabelEntry has restored: the
// journaled spend a resumed run is charged again as it re-asks them.
func (r *Runner) Restored() (answers, pairs int) {
	for _, a := range r.paid {
		answers += len(a)
	}
	return answers, len(r.paid)
}

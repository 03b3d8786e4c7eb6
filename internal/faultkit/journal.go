package faultkit

import (
	"math/rand"
	"strings"
	"sync"

	"github.com/corleone-em/corleone/internal/runsvc"
)

// JournalSchedule is a seeded fault plan for the runsvc journal — the disk
// half of the chaos harness. Every append, fsync, rename and prune removal
// of a journal crosses runsvc.Store.Faults; the schedule injects there the
// shapes a hard-killed process or a bad disk leave behind: torn writes (a
// prefix of an append reaches the page cache, then the process dies), kills
// right after an operation completes, and bit rot in a snapshot body that
// only the frame CRCs catch, forcing replay's fallback ladder onto the
// previous generation. Safe for concurrent use.
type JournalSchedule struct {
	// Seed feeds the fault stream; equal seeds replay equal decisions.
	Seed int64
	// PTear is the per-append probability of a torn write. A tear always
	// crashes the process (runsvc.Fault semantics): no surviving process
	// can observe its own torn append.
	PTear float64
	// PKill is the per-operation probability of a kill right after the
	// operation completes.
	PKill float64
	// PFlip is the per-snapshot probability of one flipped bit in the
	// snapshot body. The write itself succeeds; the damage only surfaces
	// when replay validates the generation. Logs are never flipped: they
	// have no older copy to fall back to, so rot there is lost paid state,
	// not a recoverable fault.
	PFlip float64
	// Only, when non-nil, restricts injection to the operations it
	// accepts (e.g. SnapshotOps); nil faults every boundary.
	Only func(runsvc.Op) bool
	// Limit, when > 0, caps total injected faults so a chaos resume loop
	// converges.
	Limit int

	mu       sync.Mutex
	rng      *rand.Rand
	injected int
}

// SnapshotOps accepts the boundaries of the compaction lifecycle: the
// snapshot tmp file's append and fsync ("tmp-written"), the rename that
// installs the generation, the directory fsync after the generation's log
// is created, and each prune removal.
func SnapshotOps(op runsvc.Op) bool {
	return strings.Contains(op.File, "snap.g") || op.File == "." || op.Kind == runsvc.OpRemove
}

// FaultFunc adapts the schedule to the runsvc store seam
// (runsvc.Store.Faults). The returned hook is deterministic in the
// (seed, operation sequence) pair.
func (js *JournalSchedule) FaultFunc() runsvc.FaultFunc {
	return func(op runsvc.Op) runsvc.Fault {
		js.mu.Lock()
		defer js.mu.Unlock()
		if js.rng == nil {
			js.rng = rand.New(rand.NewSource(js.Seed))
		}
		if js.Limit > 0 && js.injected >= js.Limit {
			return runsvc.Fault{}
		}
		if js.Only != nil && !js.Only(op) {
			return runsvc.Fault{}
		}
		// One draw per boundary, split into stacked bands: tear, kill, flip.
		// A band that does not apply to this operation injects nothing.
		isAppend := op.Kind == runsvc.OpAppend && len(op.Data) > 1
		var f runsvc.Fault
		switch u := js.rng.Float64(); {
		case u < js.PTear && isAppend:
			// Tear strictly inside the append so Store.Open has a real
			// repair to perform (cutting at 0 would be a plain kill).
			f.Tear = 1 + js.rng.Intn(len(op.Data)-1)
		case u >= js.PTear && u < js.PTear+js.PKill:
			f.Crash = true
		case u >= js.PTear+js.PKill && u < js.PTear+js.PKill+js.PFlip &&
			isAppend && strings.Contains(op.File, "snap.g"):
			f.Flip = true
		default:
			return f
		}
		js.injected++
		return f
	}
}

// Injected reports how many journal faults have fired so far.
func (js *JournalSchedule) Injected() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.injected
}

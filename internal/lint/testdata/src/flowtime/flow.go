// Fixture for the det-time flow rule: calls from deterministic code
// that transitively reach a wall-clock read hiding in an allowlisted
// package — directly, or through an interface dispatch that can land on
// such an implementation.
package flowtime

import (
	"fixture/flowtime/platform"
	"fixture/flowtime/seam"
)

// run crosses the frontier: platform.Stamp is clean to the unit rule
// (its package may read the clock) but poisons this caller.
func run() int64 { return platform.Stamp() }

// Clock dispatch can land on platform.SysClock — same frontier, one
// indirection later.
type Clock interface{ Stamp() int64 }

func measure(c Clock) int64 { return c.Stamp() }

// Dispatching through the audited seam is quiet.
func measureSeam(s seam.Seam) int64 { return s.Stamp() }

// platform.Relay reaches the clock only through the seam, so it carries no
// taint across it and this call is quiet too.
func relayed(s seam.Seam) int64 { return platform.Relay(s) }

// journal crosses the frontier deliberately.
func journal() int64 {
	return platform.Stamp() //corlint:allow det-time — operator-facing timestamp; never read back into results
}

// Package platform stands in for the live-marketplace client: the one
// place wall-clock reads are allowed — and therefore where time taint
// hides from the per-unit rule.
package platform

import (
	"time"

	"fixture/flowtime/seam"
)

// Stamp reaches the clock through a local helper, so callers elsewhere
// see a two-hop chain.
func Stamp() int64 { return now().UnixNano() }

func now() time.Time { return time.Now() }

// Relay reads the clock only through the audited seam.
func Relay(s seam.Seam) int64 { return s.Stamp() }

// SysClock implements the main fixture's Clock interface and the seam with
// a wall-clock read.
type SysClock struct{}

func (SysClock) Stamp() int64 { return time.Now().UnixNano() }

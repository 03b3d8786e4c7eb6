// Package seam holds the interface the fixture config registers as an
// audited determinism seam, the way crowd.Crowd is registered for the repo.
package seam

// Seam is the audited seam: dispatching through it is quiet even though
// platform.SysClock implements it with a wall-clock read.
type Seam interface{ Stamp() int64 }

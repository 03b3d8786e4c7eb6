// Package dettime seeds det-time violations: wall-clock reads in a
// package outside the allowlist.
package dettime

import "time"

// Stamp reads the clock twice; both must be flagged.
func Stamp() string {
	start := time.Now()          // want det-time
	elapsed := time.Since(start) // want det-time
	return elapsed.String()
}

// t0 reads the clock in a package-level initializer; it must be flagged.
var t0 = time.Now() // want det-time

// Duration arithmetic without reading the clock is fine.
func Fine(d time.Duration) time.Duration {
	return d * 2
}

package main

import "time"

// now is the harness's only wall-clock read: every timing in bench/ goes
// through it, so the det-time lint has exactly one audited call site here.
func now() time.Time {
	//corlint:allow det-time — a benchmark measures wall time by nature; timings are reported, never fed back into engine inputs or Results
	return time.Now()
}

// secondsSince is the elapsed wall time since t0, in seconds.
func secondsSince(t0 time.Time) float64 { return now().Sub(t0).Seconds() }

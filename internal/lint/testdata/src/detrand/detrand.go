// Package detrand seeds det-rand violations: package-level math/rand
// draws from the process-global source.
package detrand

import "math/rand"

// Global draws from the shared source twice; both must be flagged.
func Global() int {
	n := rand.Intn(10)  // want det-rand
	f := rand.Float64() // want det-rand
	return n + int(f*10)
}

// draw reads the global source in a package-level initializer; it must
// be flagged.
var draw = rand.Int63() // want det-rand

// Seeded is the sanctioned pattern and must not be flagged.
func Seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

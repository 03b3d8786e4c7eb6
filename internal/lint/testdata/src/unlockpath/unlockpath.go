// Fixture for conc-unlockpath: every acquire must be released later in its
// own block — deferred or plain — before any return or jump.
package unlockpath

import "sync"

type counter struct {
	mu sync.RWMutex
	n  int
}

// peek leaks: the early return exits with the lock held.
func (c *counter) peek() int {
	c.mu.Lock()
	if c.n > 0 {
		return c.n
	}
	c.mu.Unlock()
	return 0
}

// read leaks the read lock the same way.
func (c *counter) read() (int, bool) {
	c.mu.RLock()
	if c.n < 0 {
		return 0, false
	}
	v := c.n
	c.mu.RUnlock()
	return v, true
}

// incr is the idiom: defer right after acquiring.
func (c *counter) incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// swap releases explicitly on every path, but the early return sits
// between the Lock and the release in its block: a finding.
func (c *counter) swap(v int) int {
	c.mu.Lock()
	if v < 0 {
		c.mu.Unlock()
		return c.n
	}
	old := c.n
	c.n = v
	c.mu.Unlock()
	return old
}

// maybe defers the release only when c.n is positive; on the other path
// it returns with the lock held.
func (c *counter) maybe() int {
	c.mu.Lock()
	if c.n > 0 {
		defer c.mu.Unlock()
	}
	return c.n
}

// find returns from inside a labeled loop with the lock held.
func (c *counter) find(xs []int) int {
	c.mu.Lock()
outer:
	for _, x := range xs {
		for y := 0; y < x; y++ {
			if y == c.n {
				return y
			}
			if y > c.n {
				continue outer
			}
		}
	}
	c.mu.Unlock()
	return -1
}

// drain breaks and continues only inside the loop it owns, between the
// Lock and the Unlock: fine.
func (c *counter) drain(xs []int) {
	c.mu.Lock()
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > c.n {
			break
		}
		switch x {
		case 0:
			break
		}
		c.n -= x
	}
	c.mu.Unlock()
}

// must panics on the empty path; a terminated path is not a leak.
func (c *counter) must() int {
	c.mu.Lock()
	if c.n == 0 {
		panic("empty")
	}
	v := c.n
	c.mu.Unlock()
	return v
}

// acquire is a deliberate lock handoff: done() releases.
func (c *counter) acquire() {
	c.mu.Lock() //corlint:allow conc-unlockpath — lock handoff: every caller pairs this with done(), audited
	c.n++
}

func (c *counter) done() {
	c.mu.Unlock()
}

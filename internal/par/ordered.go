package par

import "sync"

// Ordered is the ordered fan-out: concurrent workers claim runs of
// consecutive indexes of [0, n), finish them in any order, and the results
// are handed to emit exactly once each, in ascending index order. Workers
// may run ahead of the slowest unfinished index only by the window, which
// bounds the reorder buffer whatever the completion order; a failure stops
// further claims and freezes emission at the last contiguous prefix.
//
// It is the one reorder window in the repo: the blocker's rule application
// (claims of one row of table A) and the shard coordinator (claims of a batch of
// tasks) both sit on it. Callers start their own worker goroutines — each
// keeps per-worker state — and loop Claim → work → Complete until Claim
// reports done.
type Ordered[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	next   int // next index to hand out
	front  int // emission frontier: next index to deliver
	n      int
	window int
	err    error // first failure; non-nil stops claims and emission
	done   map[int]T
	emit   func(i int, v T)
}

// NewOrdered prepares a fan-out over [0, n) that lets at most window
// indexes (floored at 1) be claimed beyond the emission frontier. emit runs
// under the fan-out's lock, so its calls are serialized and ordered; it
// must not call back into the Ordered.
func NewOrdered[T any](n, window int, emit func(i int, v T)) *Ordered[T] {
	if window < 1 {
		window = 1
	}
	o := &Ordered[T]{n: n, window: window, done: make(map[int]T), emit: emit}
	o.cond.L = &o.mu
	return o
}

// Claim hands out the next run of up to max consecutive indexes [lo, lo+n),
// blocking while the caller is a full window ahead of emission; ok is false
// once every index is handed out or the fan-out has failed. A run never
// extends past the window: it starts only when the reorder buffer has room
// for at least one result and is truncated to the room left, so "never more
// than window indexes beyond the frontier" holds at every claim size.
func (o *Ordered[T]) Claim(max int) (lo, n int, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.err == nil && o.next < o.n && o.next-o.front >= o.window {
		o.cond.Wait()
	}
	if o.err != nil || o.next >= o.n {
		return 0, 0, false
	}
	n = max
	if n < 1 {
		n = 1
	}
	if room := o.window - (o.next - o.front); n > room {
		n = room
	}
	if rem := o.n - o.next; n > rem {
		n = rem
	}
	lo = o.next
	o.next += n
	return lo, n, true
}

// Complete records index i's result and delivers every ready result, in
// index order, to emit. After a failure it is a no-op.
func (o *Ordered[T]) Complete(i int, v T) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return
	}
	o.done[i] = v
	for {
		out, ok := o.done[o.front]
		if !ok {
			break
		}
		delete(o.done, o.front)
		o.emit(o.front, out)
		o.front++
	}
	o.cond.Broadcast()
}

// Fail records the fan-out's first error (non-nil), wakes blocked claimers,
// and stops emission where it stands.
func (o *Ordered[T]) Fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = err
	}
	o.cond.Broadcast()
}

// Err returns the error passed to the first Fail, or nil.
func (o *Ordered[T]) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

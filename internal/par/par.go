// Package par provides the parallelism primitives the compute layers share.
// For is a chunked parallel for: Corleone's hot loops (feature vectors,
// forest training, entropy ranking) are embarrassingly parallel over an
// index range whose results land at their own index. Each is its dynamic
// sibling for a few tasks of uneven size (the extractor's columns), claimed
// one at a time. Ordered is the ordered fan-out for work whose results
// stream out instead: workers claim indexes a bounded window ahead and
// results are delivered in index order (the blocker's rule application, the
// shard coordinator). Centralizing them keeps the chunking policy, the reorder
// window, and the guarantee of a deterministic output order in one place.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For partitions [0, n) into at most GOMAXPROCS contiguous chunks and runs
// fn(lo, hi) on each, concurrently, returning when all chunks are done.
// fn must only write to state owned by its own index range (e.g. out[i] for
// lo <= i < hi); For itself imposes no ordering between chunks.
//
// Small inputs (n <= 1) and single-CPU runs execute inline with no
// goroutine overhead. The zero-work case (n <= 0) is a no-op.
func For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Each runs fn(i) for every i in [0, n) on at most GOMAXPROCS goroutines,
// returning when all calls are done. Unlike For it splits nothing up front:
// each goroutine claims the next index, in ascending order, as soon as it is
// free, so two large tasks never wait on one goroutine while another idles.
// fn must only write to state owned by its own index. A single worker runs
// the indexes in order, inline.
func Each(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

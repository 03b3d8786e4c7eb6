package blocker

import (
	"math"

	"github.com/corleone-em/corleone/internal/record"
)

// Sink consumes the umbrella set as a stream of pair chunks. Chunks arrive
// in deterministic (a, b)-lexicographic order regardless of GOMAXPROCS, and
// the chunk slice is reused by the emitter after the call returns —
// implementations that retain pairs must copy them (append into a
// destination slice does). A nil Sink is never invoked.
type Sink func(chunk []record.Pair)

// blockPairs is the largest chunk a Sink is handed. The scan's unit of work
// is a row of table A: its survivors, at most |B| pairs, wait in the reorder
// buffer and are delivered in slices of at most blockPairs, so the
// streaming path's peak memory is bounded by |B| × (reorder window) pairs —
// independent of the umbrella set's size.
const blockPairs = 4096

// seqWindowPerWorker bounds how far ahead of the emission frontier workers
// may claim rows (par.Ordered's window). The reorder buffer therefore holds
// at most workers × seqWindowPerWorker completed rows.
const seqWindowPerWorker = 4

// emitAllPairs streams the full Cartesian product A×B through sink in
// (a, b) order, in bounded chunks. All index arithmetic is int64, so the
// path is safe for products that overflow int — the untriggered-blocking
// guard the old preallocating allPairs lacked.
func emitAllPairs(ds *record.Dataset, sink Sink) {
	na, nb := int64(ds.A.Len()), int64(ds.B.Len())
	total := na * nb
	if total <= 0 {
		return
	}
	buf := make([]record.Pair, 0, blockPairs)
	for a := int64(0); a < na; a++ {
		for b := int64(0); b < nb; b++ {
			buf = append(buf, record.Pair{A: int32(a), B: int32(b)})
			if len(buf) == blockPairs {
				sink(buf)
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		sink(buf)
	}
}

// collectSink returns a sink that materializes the stream into *dst,
// growing it by copy (chunks are emitter-owned and reused).
func collectSink(dst *[]record.Pair) Sink {
	return func(chunk []record.Pair) {
		*dst = append(*dst, chunk...)
	}
}

// allPairs materializes the full Cartesian product. The capacity hint comes
// from the int64 CartesianSize and is applied only when the product fits
// comfortably in an int-indexed allocation, so a pathological |A|·|B| can
// no longer overflow the na*nb int multiply into a bogus make() size.
func allPairs(ds *record.Dataset) []record.Pair {
	var out []record.Pair
	if n := ds.CartesianSize(); n > 0 && n < math.MaxInt32 {
		out = make([]record.Pair, 0, int(n))
	}
	emitAllPairs(ds, collectSink(&out))
	return out
}

// Package shard holds the similarity Index and the rule Verifier that
// blocking's rule application (§4.3) runs on, and a sharded, distributable
// execution library around them that only the benchmark's probes and the
// tests drive. The library splits the indexed table into K shards with a
// stable hash on the record id, builds an independent inverted similarity
// index per shard with bounded memory, and fans probe-and-verify tasks out
// to workers — goroutines in this process or worker processes over HTTP —
// merging the per-shard survivor streams back through a deterministic
// (a, b)-ordered merge.
//
// The design invariant is bit-identical output: a sharded run, at any K,
// any worker count, and any task completion order, emits exactly the pair
// stream the exhaustive A×B scan emits. Three properties compose to give
// that:
//
//  1. Partitioning is a pure function of the record id (Assign), so the
//     shards cover the indexed table disjointly and exhaustively at every
//     K and on every worker process.
//  2. Each per-shard index is a complete candidate superset for its rows
//     (simindex's completeness guarantee restricted to the shard), and
//     every candidate is re-verified against the full rule set by the
//     same memoized evaluator (Verifier) the single-process paths use —
//     so a shard's survivor list is exactly the true survivors among its
//     rows, regardless of which process computed it.
//  3. The Coordinator emits task results in task-sequence order behind a
//     reorder window, and per-probe-block survivor lists from the K
//     shards are K-way merged by (a, b) — so scheduling, retries, and
//     worker crashes can change only *when* a result is computed, never
//     where it lands in the output stream.
//
// Failure handling rides on the already chaos-hardened transport
// (internal/platform): the remote executor inherits its retry policy,
// per-endpoint circuit breakers, and idempotent task semantics (a probe
// is a pure function of its task, so re-executing a crashed worker's task
// on another endpoint cannot double-emit or diverge).
package shard

// Assign maps a record id to its shard in [0, k) with a 32-bit FNV-1a hash
// over the id's bytes. The assignment is a pure function of (id, k): every
// process — coordinator, shard worker, a worker restarted after a crash —
// places every record identically, which is what lets a retried task be
// recomputed anywhere.
func Assign(row int32, k int) int {
	if k <= 1 {
		return 0
	}
	h := uint32(2166136261)
	x := uint32(row)
	for i := 0; i < 4; i++ {
		h ^= x & 0xff
		h *= 16777619
		x >>= 8
	}
	return int(h % uint32(k))
}

// Partition splits rows [0, n) into k shards by Assign. Each shard's row
// list is ascending; the lists are disjoint and cover [0, n).
func Partition(n, k int) [][]int32 {
	if k < 1 {
		k = 1
	}
	// Count first, then carve the k lists out of one array of n rows: two
	// allocations whatever n and k are.
	counts := make([]int, k)
	for r := int32(0); r < int32(n); r++ {
		counts[Assign(r, k)]++
	}
	all := make([]int32, n)
	out := make([][]int32, k)
	for s, c := range counts {
		out[s], all = all[:0:c], all[c:]
	}
	for r := int32(0); r < int32(n); r++ {
		s := Assign(r, k)
		out[s] = append(out[s], r)
	}
	return out
}

#!/bin/sh
# Full verification: format gate, vet, corlint, build, and the complete
# test suite under the race detector. Tier-1 (go build && go test) is a
# subset; this is the bar for changes touching concurrency — the run
# service executes many engine pipelines in parallel.
set -eux

cd "$(dirname "$0")/.."

# Formatting is a hard gate: gofmt -l prints offending files, so any
# output fails the run with the list in the log.
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: unformatted files:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

go vet ./...
go run ./cmd/corlint ./...
go build ./...

# Allocation gate: compiler escape/inlining diagnostics for the hot-path
# packages vs the checked-in baseline. Runs right after the build so it
# rides the warm build cache (the compiler replays -m diagnostics on
# cache hits).
go run ./cmd/corlint -alloc

# Chaos smoke: one transport schedule and one kill-point schedule run
# first, without -race, so a resilience regression surfaces in seconds
# instead of at the end of the long race run. The race run that follows
# covers the full schedule matrix (chaos suite included).
go test -count=1 -run 'TestChaosSchedules/(5xx-burst|kill-points|snap-kill-points)' ./internal/faultkit

# Journal smoke: the strided boundary sweep, torn-tail repair, the
# corruption fallback ladder and the bounded-replay cost bound, without
# -race for fast signal.
go test -count=1 -run 'TestDurabilityBoundarySweep' ./internal/faultkit
go test -count=1 -run 'TestStoreOpen|TestSnapshotCorruptionFallback|TestSnapshotBoundedReplay' ./internal/runsvc

# Sharded smoke: the bit-identical equivalence sweep (K x GOMAXPROCS) and
# one shard-worker failover schedule, again without -race for fast signal.
go test -count=1 -run 'TestShardedBlockingEquivalence|TestShardedMergeDeterminism' ./internal/blocker
go test -count=1 -run 'TestShardWorkerChaos/5xx-failover' ./internal/faultkit

go test -race ./...

# Wire-format fuzz smoke: a short run of the pair codec (exact round trip,
# canonical re-encoding, decoder totality) and the K-way merge vs its
# reference, so a codec change that breaks canonicality or totality fails
# here in seconds instead of surfacing as a torn-stream mystery.
go test -count=1 -run '^$' -fuzz 'FuzzPairCodec' -fuzztime 5s ./internal/shard
go test -count=1 -run '^$' -fuzz 'FuzzMergePairs' -fuzztime 5s ./internal/shard

# Pair-kernel fuzz smoke: the bit-parallel Jaro and the integer-coded set
# measures against the retained greedy / string-merge oracles, Float64bits
# equality.
go test -count=1 -run '^$' -fuzz 'FuzzJaroBitParallel' -fuzztime 5s ./internal/similarity
go test -count=1 -run '^$' -fuzz 'FuzzSetKernels' -fuzztime 5s ./internal/similarity

# Journal fuzz smoke: arbitrary bytes as a log and as a snapshot restore
# at most their longest valid frame prefix; one altered byte is rejected
# or cut back to a strict prefix. Inputs are whole journal files, so
# minimization is off (it would spend the budget on one input).
go test -count=1 -run '^$' -fuzz 'FuzzJournalReplay' -fuzztime 5s -fuzzminimizetime 0 ./internal/runsvc

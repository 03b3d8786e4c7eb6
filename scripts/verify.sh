#!/bin/sh
# Full verification: format gate, vet, corlint, build, one iteration of
# every benchmark in the module, and the complete test suite under the race
# detector. Tier-1 (go build && go test) is a subset; this is the bar for
# changes touching concurrency — the run service executes many engine
# pipelines in parallel.
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

# Benchmark smoke: every Benchmark* in the module runs once, so one that
# panics or no longer compiles against its fixtures fails here. No number
# is read — timing a change is the end-to-end benchmark's job (bench/).
go test -run '^$' -bench . -benchtime 1x ./...

# Every named -run gate below goes through scripts/runtests.sh, which fails
# when an alternative of the pattern matches no test (go test only warns).

# Chaos smoke: one transport schedule and one kill-point schedule run
# first, without -race, so a resilience regression surfaces in seconds
# instead of at the end of the long race run. The race run that follows
# covers the full schedule matrix (chaos suite included).
sh scripts/runtests.sh -count=1 -run 'TestChaosSchedules/(5xx-burst|kill-points|snap-kill-points)' ./internal/faultkit

# Journal smoke: the strided boundary sweep, torn-tail repair, the
# corruption fallback ladder, the bounded-replay cost bound and the
# compaction size rule, without -race for fast signal.
sh scripts/runtests.sh -count=1 -run 'TestDurabilityBoundarySweep' ./internal/faultkit
sh scripts/runtests.sh -count=1 -run 'TestStoreOpen|TestSnapshotCorruptionFallback|TestSnapshotBoundedReplay|TestSnapshotSize' ./internal/runsvc

# Shard-library smoke: the remote executor against the in-process one
# (K x batch), and one shard-worker failover schedule, again without -race
# for fast signal.
sh scripts/runtests.sh -count=1 -run 'TestShardedRemoteTransportEquivalence' ./internal/shard
sh scripts/runtests.sh -count=1 -run 'TestShardWorkerChaos/5xx-failover' ./internal/faultkit

# GOMAXPROCS invariance: the pinned outputs, golden fingerprints and
# Vectors' run shapes at one and at four procs. The Makefile holds the list.
make procs

go test -race ./...

# Fuzz smoke: every target `make fuzz` lists (pair codec and merge, the
# rel_diff band index, pair and column kernels (Myers, Jaro and its masks built
# once for many a, Jaro-Winkler's symmetry, the set measures, the edit column,
# the Monge-Elkan column,
# Vectors' tiles), the character-bag bounds the verifier decides edit and
# Jaro-Winkler predicates with, the token-pair table, the column profile build and the string
# primitives under it, CSV round trip and reader totality, row sets and
# their sparse sampler, rule coverage and votes by leaf, journal replay,
# model and spec decoders, the submit body, the shard worker's job-spec
# load), 5 s each, so a change that breaks a decoder's totality or a
# kernel's bit-identity fails here in seconds. The Makefile holds the list.
make fuzz FUZZTIME=5s

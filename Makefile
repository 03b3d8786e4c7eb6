# Corleone build targets. `make verify` is the pre-merge bar (ROADMAP.md);
# tier-1 is the build+test subset. The test lists that scripts/verify.sh and
# CI both run are written once, here: `procs` (the -cpu 1,4 runs) and `fuzz`.

GO ?= go

# Every named -run gate goes through scripts/runtests.sh, which fails when an
# alternative of the pattern matches no test (go test only warns).
RUNTESTS = GO=$(GO) sh scripts/runtests.sh

.PHONY: build test lint verify bench-e2e bench-e2e-trace chaos shard procs fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static gates: vet plus corlint, the repo's own invariant linter
# (determinism, float hygiene, durability, concurrency — see DESIGN.md
# "Enforced invariants"). Exits nonzero on any unsuppressed finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/corlint ./...

# gofmt gate + lint + build + full suite under the race detector.
verify:
	sh scripts/verify.sh

# Chaos suite under the race detector: every seeded fault schedule
# (transport 5xx bursts/drops/latency, torn journal appends, kills at any
# journal durability boundary, kills inside the compaction lifecycle and
# bit-flipped snapshot generations) drives a full engine run through the
# HTTP marketplace and the resume journal, and must converge
# bit-identically to the unfaulted baseline with no double-pay. The
# boundary sweep is the exhaustive counterpart of the sampled schedules:
# one kill at every durability boundary the job crosses, plus a tear
# inside every append (tier-1 runs every 8th). The runsvc journal tests
# ride along: torn-tail repair at every byte offset, the corruption
# fallback ladder, the bounded-replay cost assertion, compaction
# retention, the size rule's bounds (a non-idle checkpoint leaves the log
# no larger than the newest snapshot; snapshots total under twice the
# log) and its recovery across a kill and resume (TestSnapshotSize*), and
# the resume tests — finished noisy-crowd jobs resumed to
# an identical Result with no crowd call, and degraded killed jobs whose
# journaled answers the resumed accounting must still hold. -count=1
# forces a fresh run past the test cache.
chaos:
	$(RUNTESTS) -race -count=1 -v -run 'TestChaosSchedules' ./internal/faultkit
	CORLEONE_SWEEP_FULL=1 $(RUNTESTS) -race -count=1 -v -run 'TestDurabilityBoundarySweep' ./internal/faultkit
	$(RUNTESTS) -race -count=1 -run 'TestSnapshot|TestStoreOpen|TestKillAndResume|TestResume' ./internal/runsvc

# Shard-library gate under the race detector: the shard runtime's own suite
# (the remote executor against the in-process one over K x batch included),
# the service's index-probe counters, and the shard-worker chaos schedules
# (5xx failover, worker crash, a batch cut mid-stream: the survivor stream
# equals the in-process one). Blocking itself probes one index in-process;
# its equivalence with the scan is TestApplyRulesEquivalence, in tier-1.
shard:
	$(GO) test -race -count=1 ./internal/shard
	$(RUNTESTS) -race -count=1 -run 'TestHealthzAndMetrics' ./internal/runsvc
	$(RUNTESTS) -race -count=1 -v -run 'TestShardWorkerChaos' ./internal/faultkit

# GOMAXPROCS invariance — the one list of -cpu 1,4 runs (`make verify` and
# CI call this): the pinned engine and estimator outputs and the golden
# fingerprints must hold bit for bit at one and at four procs, not only at
# the box's default; and Vectors' tiles of rows of A are cut where par.For
# cuts the pairs into chunks, one per GOMAXPROCS, so its run shapes must
# hold at both.
procs:
	$(RUNTESTS) -count=1 -cpu 1,4 -run 'TestRunPinned|TestRunGoldenFingerprints|TestEstimatePinned' ./internal/engine ./internal/estimator
	$(RUNTESTS) -count=1 -cpu 1,4 -run 'TestVectorsRunShapes|TestVectorsParallelMatchesSequential' ./internal/feature

# Differential fuzz smoke — the one list of fuzz targets (`make verify`
# and CI call this). Wire format: the pair codec (exact round trip,
# canonical re-encoding, decoder totality over arbitrary bytes) and the
# K-way merge vs its reference. Similarity-join index: the rel_diff band's
# candidates hold every row the brute-force predicate keeps, ascending, no
# row twice, on arbitrary float64 bit patterns (DESIGN.md §9.1). Pair
# kernels: Myers' bit-parallel edit distance vs the matrix and two-row DPs,
# Levenshtein's metric properties, every string measure's [0, 1] range,
# bit-parallel Jaro vs the greedy matcher (and b's masks built once for a
# tile of a vs one pair at a time), Jaro and Jaro-Winkler the same bits in
# both argument orders, the integer-coded set measures vs the string merges,
# and the Monge-Elkan token-pair table (fill, read-back, and each pair's one
# cell vs the kernel in both argument orders) and its column, with and
# without a table, vs the string measure and
# the pair path, all to Float64bits equality (DESIGN.md "Pair
# kernels", "Operand dictionaries and write-once tables"); the character-bag
# bounds at least the edit and Jaro-Winkler kernels' float64, and their SWAR
# common count equal to a per-rune count (DESIGN.md "Bounds before
# kernels"); and the column
# kernels vs the pair kernels: the edit column over a fuzzed pattern and
# texts, every feature's column, whole and by position list, and Vectors over
# a cross product of several tiles of rows, over random small token multisets
# (DESIGN.md "Column kernels"). Profiles: the column
# build vs the per-value string functions over a fuzzed list of values at a
# fuzzed chunk count, to the bit (DESIGN.md "Record profiles"), and the
# string primitives under them — Normalize idempotent and lowered, Words
# tokens alphanumeric and lowered, QGrams/Trigrams gram counts and packing.
# Record I/O: a CSV written and read back is the table, and reading
# arbitrary bytes never panics. Journal: arbitrary
# bytes as a log and as a snapshot never restore more than their longest
# valid frame prefix, and one altered byte never goes unnoticed (DESIGN.md
# "The journal"). Row sets: the bitset behind every post-blocking row set vs
# a map[int]bool, including the two representation invariants that keep
# reflect.DeepEqual on results meaningful, and RowSampler's sparse draw vs
# the dense draw over the set's ascending enumeration (DESIGN.md "Row sets
# and the post-blocking stages"). Rule coverage: the forest leaf walk vs
# Rule.Matches and MakeCandidates, and its majority votes vs Forest.Predict
# (NaN rows too), on forests trained on random small sets, rows of -1, -0,
# ±Inf and values at the thresholds (DESIGN.md "Cover by leaf"). Job directory: the two remaining disk decoders
# are total — a model file that loads re-saves to an identical forest, a
# spec.json that decodes builds or fails with an error. Submit body: the
# POST /jobs decoder and its range check never panic on arbitrary bytes, and
# every Meta they accept is in range and survives the spec record the journal
# keeps (DESIGN.md "Run service"). Shard worker: the POST /shard/load decoder
# never panics on arbitrary bytes, and every job spec Load accepts serves a
# probe. The job-directory targets
# take whole files as inputs, so minimizing each interesting one would eat
# the run — hence -fuzzminimizetime 0. `go test -fuzz` accepts one target
# per invocation, hence one run each, FUZZTIME apiece.
FUZZTIME ?= 10s
FUZZ = $(GO) test -count=1 -run '^$$' -fuzztime $(FUZZTIME)
fuzz:
	$(FUZZ) -fuzz 'FuzzPairCodec' ./internal/shard
	$(FUZZ) -fuzz 'FuzzMergePairs' ./internal/shard
	$(FUZZ) -fuzz 'FuzzWorkerLoad' ./internal/shard
	$(FUZZ) -fuzz 'FuzzBandCandidates' ./internal/simindex
	$(FUZZ) -fuzz 'FuzzMyersMatchesMatrixDP' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzLevenshteinMetricProperties' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzStringMeasuresStayInRange' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzJaroBitParallel' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzJaroWinklerSymmetric' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzBagBound' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzEditColumn' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzSetKernels' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzMongeElkanTable' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzColumnProfiles' ./internal/similarity
	$(FUZZ) -fuzz 'FuzzNormalize' ./internal/strutil
	$(FUZZ) -fuzz 'FuzzQGrams' ./internal/strutil
	$(FUZZ) -fuzz 'FuzzWords' ./internal/strutil
	$(FUZZ) -fuzz 'FuzzCSVRoundTrip' ./internal/record
	$(FUZZ) -fuzz 'FuzzReadCSVNeverPanics' ./internal/record
	$(FUZZ) -fuzz 'FuzzColumnKernel' ./internal/feature
	$(FUZZ) -fuzz 'FuzzRowSet' ./internal/ruleeval
	$(FUZZ) -fuzz 'FuzzCover' ./internal/ruleeval
	$(FUZZ) -fuzz 'FuzzJournalReplay' -fuzzminimizetime 0 ./internal/runsvc
	$(FUZZ) -fuzz 'FuzzForestLoad' -fuzzminimizetime 0 ./internal/runsvc
	$(FUZZ) -fuzz 'FuzzSpecRecord' -fuzzminimizetime 0 ./internal/runsvc
	$(FUZZ) -fuzz 'FuzzSubmitMeta' ./internal/runsvc

# The end-to-end benchmark (bench/README.md, BENCHMARK.json): pairs/s,
# job latency, bytes and allocations per pair, F1 and crowd cost on five
# workloads, with output checks. `bench-e2e` is the timed run of every
# workload (or WORKLOAD=name); `bench-e2e-trace WORKLOAD=name` is the
# separate traced run that attributes the time to layers. To judge a
# change, alternate runs of both commits as README "Measuring a change"
# describes — one run per side is inside the box's noise.
WORKLOAD ?=
bench-e2e:
	$(GO) run ./bench $(if $(WORKLOAD),--workload $(WORKLOAD)) --trace 0

bench-e2e-trace:
	$(GO) run ./bench --workload $(or $(WORKLOAD),cit-scan) --trace 1

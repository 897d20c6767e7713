GO ?= go

.PHONY: check ci build vet fmt test race diff-race chaos chaos-store api-lock serve-race bignet-race fuzz-bignet fuzz-store bench bench-gate bench-gate-cluster bench-gate-resilience bench-gate-graph bench-gate-serve bench-gate-bignet bench-gate-restart bench-gate-suggest

# check is the CI gate: vet, formatting, and the full test suite under the
# race detector.
check: vet fmt race

# ci extends check with the differential suites pinned explicitly under the
# race detector — the golden selection output (root golden_test.go), the
# bit-identity proofs for the coverage engine (internal/core), the
# similarity engine (internal/simcache), the VF2 and MCCS kernels against
# their test-file oracles (internal/subiso, internal/mcs), the
# large-network decomposition (internal/bignet + root bignet_diff_test.go),
# and the durable-state warm restart (root maintain_persist_test.go) — the
# fault-injection chaos suites for the resilience, serving, and snapshot
# layers (chaos-store is the crash/corruption wall for the state store),
# the public-API gates (api-lock walk + external-consumer compile smoke),
# the large-network race + fuzz-seed suite, and the frozen-matcher,
# serving, large-network, warm-restart, and autocompletion benchmark
# gates.
ci: check diff-race chaos chaos-store api-lock serve-race bignet-race bench-gate-graph bench-gate-serve bench-gate-bignet bench-gate-restart bench-gate-suggest

# api-lock pins the public facade: the go/types walk fails when an exported
# root identifier references an internal/ type with no root-package alias,
# and the external-consumer smoke builds testdata/extconsumer (a separate
# module) against the facade using only catapult.* names.
api-lock:
	$(GO) test -count=1 -run 'TestAPILock|TestExternalConsumer' .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# diff-race runs the differential tests — engines and kernels against their
# test-file oracles (among them bound-ordered against exhaustive scoring,
# the walk index against map walks, and the array A* against the map A*),
# outputs across worker counts — under -race and without
# result caching, so cache-freshness never masks a divergence. Every suite
# runs under GOMAXPROCS 1, 2 and 4, so a pass on one core cannot hide a
# scheduling bug. Includes the large-network suites: decomposition must be
# bit-identical across GOMAXPROCS and the text/binary loaders must select
# identically, and the suggest suite: unbudgeted autocompletion rankings
# must not depend on GOMAXPROCS. The golden suite selects every input under
# GOMAXPROCS 1, 2 and 4 itself, so it runs once.
diff-race:
	@for p in 1 2 4; do \
		echo "GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run 'Differential|MatchesLegacy|MatchesNaive' \
			./internal/core/ ./internal/cluster/ ./internal/bignet/ ./internal/suggest/ \
			./internal/subiso/ ./internal/mcs/ ./internal/simcache/ ./internal/ged/ . || exit 1; \
	done
	$(GO) test -race -count=1 -run 'Golden' .

# chaos runs the fault-injection suite under -race at GOMAXPROCS 1, 2 and 4:
# injected worker panics and stalls in every pipeline phase must degrade —
# never crash or leak — and the unbounded guarded run must stay
# bit-identical.
chaos:
	@for p in 1 2 4; do \
		echo "GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run 'Chaos' ./... || exit 1; \
	done

# chaos-store runs the crash/corruption fault-injection wall for the
# durable state store under -race: a writer killed at byte N of the
# persist path (swept per-byte), kills after commit, every section of a
# snapshot flipped/zeroed/truncated, and persist kills mid-refresh at the
# maintainer level. Recovery must load the previous generation
# bit-identically or report a typed degraded start — never panic, never
# serve partial state.
chaos-store:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/store/
	$(GO) test -race -count=1 -run 'TestMaintainerChaos' .

# serve-race runs the pattern service, its replayed-user load harness, the
# pattern panel and guiserve's one mux under the race detector without
# caching: lock-free snapshot reads (the panel's among them), coalesced
# searches, and concurrent refreshes must be race-clean and produce zero
# torn reads.
serve-race:
	$(GO) test -race -count=1 ./internal/serve/... ./internal/webui/ ./cmd/guiserve/

# bignet-race runs the large-network subsystem — streaming loaders, edge
# partition, parallel region summarization — under the race detector
# without caching. The fuzz targets' seed corpora run as regular tests
# here; use `make fuzz-bignet` for a timed fuzzing session.
bignet-race:
	$(GO) test -race -count=1 ./internal/bignet/...

# fuzz-bignet gives each bignet fuzz target a short coverage-guided
# session: the lenient text loader, the hostile-bytes binary loader, and
# the partition invariants. FUZZTIME overrides the per-target budget.
FUZZTIME ?= 15s
fuzz-bignet:
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeListLoader$$' -fuzztime $(FUZZTIME) ./internal/bignet/
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryLoader$$' -fuzztime $(FUZZTIME) ./internal/bignet/
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionInvariants$$' -fuzztime $(FUZZTIME) ./internal/bignet/

# fuzz-store gives the snapshot loader a timed coverage-guided session:
# Decode over hostile bytes must never panic or over-allocate, and
# anything it accepts must re-encode and re-decode stably.
fuzz-store:
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoader$$' -fuzztime $(FUZZTIME) ./internal/store/

bench: bench-gate bench-gate-cluster bench-gate-resilience bench-gate-graph bench-gate-serve bench-gate-bignet bench-gate-restart bench-gate-suggest
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-gate runs the coverage-engine regression gate: it writes
# BENCH_cover.json and fails if the engine path is slower than the
# sequential VF2 oracle loop of internal/core's tests.
bench-gate:
	BENCH_GATE=1 $(GO) test -run '^TestCoverageBenchGate$$' -count=1 ./internal/core/

# bench-gate-cluster runs the similarity-engine regression gate: it writes
# BENCH_cluster.json and fails if the memoized, parallel engine is less
# than 1.5x faster than the sequential MCCS oracle of internal/simcache's
# tests on the rows of a pairwise similarity matrix.
bench-gate-cluster:
	BENCH_GATE_CLUSTER=1 $(GO) test -run '^TestClusteringBenchGate$$' -count=1 ./internal/simcache/

# bench-gate-resilience measures anytime selection quality: it writes
# BENCH_resilience.json recording the subgraph coverage retained when the
# pipeline is deadlined at 25% / 50% / 75% of its unconstrained wall clock,
# and fails if a degraded run returns an empty pattern set.
bench-gate-resilience:
	BENCH_GATE_RESILIENCE=1 $(GO) test -run '^TestResilienceBenchGate$$' -count=1 -timeout 600s .

# bench-gate-graph runs the frozen-graph matcher regression gate: it writes
# BENCH_graph.json (VF2 containment and MCCS similarity, frozen CSR vs the
# mutable-graph oracles in the subiso and mcs test files) and fails if
# frozen VF2 is less than 1.5x faster. The two halves run one after the
# other, so neither times the other's load.
bench-gate-graph:
	BENCH_GATE_GRAPH=1 $(GO) test -run '^TestGraphBenchGate$$' -count=1 ./internal/subiso/
	BENCH_GATE_GRAPH=1 $(GO) test -run '^TestGraphBenchGate$$' -count=1 ./internal/mcs/

# bench-gate-serve runs the serving regression gate: a thousand seeded
# simulated users replay panel fetches and containment searches over real
# HTTP against the pattern service fronting the quickstart maintainer. It
# writes BENCH_serve.json and fails on sustained throughput below 5000 rps,
# p99 above 50ms, any request error, or any internally inconsistent
# response. SERVE_BENCH_USERS / SERVE_BENCH_SECONDS shrink the run for
# local iteration (thresholds only bind at the full fleet size).
bench-gate-serve:
	BENCH_GATE_SERVE=1 $(GO) test -run '^TestServeBenchGate$$' -count=1 -timeout 600s .

# bench-gate-bignet runs the large-network regression gate: a ~1M-edge
# generated R-MAT network is streamed through the text loader into a
# frozen CSR, decomposed into regions, and run through pattern selection
# end to end. It writes BENCH_bignet.json and fails on load throughput
# below 500k edges/sec, decompose+select above 120s, or an empty or
# out-of-budget pattern set. BIGNET_BENCH_EDGES shrinks the network for
# local iteration (thresholds only bind at the full size).
bench-gate-bignet:
	BENCH_GATE_BIGNET=1 $(GO) test -run '^TestBignetBenchGate$$' -count=1 -timeout 600s .

# bench-gate-restart runs the warm-restart regression gate: recovering the
# quickstart serving state from a CSNAP1 snapshot (LoadState +
# NewMaintainerFromState) is timed against mining it from scratch. It
# writes BENCH_restart.json and fails when the warm restart is less than
# 10x faster than the cold mine, or when the recovered state is not
# bit-identical to the state that was persisted.
bench-gate-restart:
	BENCH_GATE_RESTART=1 $(GO) test -run '^TestRestartBenchGate$$' -count=1 -timeout 600s .

# bench-gate-suggest runs the autocompletion regression gate: seeded
# simulated users formulate extended-pattern target queries keystroke by
# keystroke against POST /v1/suggest on the pattern service fronting the
# quickstart maintainer, accepting suggested patterns per the user model.
# It writes BENCH_suggest.json and fails when the per-keystroke p99
# exceeds the engine's ~100ms anytime budget, when the replay saves no
# formulation steps (steps-saved μ must be > 0), or on any request error
# or internally inconsistent response. SUGGEST_BENCH_USERS /
# SUGGEST_BENCH_TARGETS shrink the run for local iteration.
bench-gate-suggest:
	BENCH_GATE_SUGGEST=1 $(GO) test -run '^TestSuggestBenchGate$$' -count=1 -timeout 600s .

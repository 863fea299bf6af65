# Developer / CI entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite under the race detector (the
# harness fans scenario grids across goroutines, so -race exercises the
# concurrent paths on every run), the golden-file regression suite and a
# short fuzz smoke of every native fuzz target.

GO ?= go

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-json tables golden golden-update fuzz-smoke stream-smoke fleet-smoke search-smoke

check: vet build race golden stream-smoke fleet-smoke search-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: run the Benchmark* suite and write
# name / ns_per_op / allocs_per_op per benchmark to BENCH_5.json, so the
# perf trajectory accumulates as comparable artifacts across changes.
BENCHTIME ?= 1s
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./internal/tools/benchjson > BENCH_5.json

# Golden-file regression suite: every deterministic experiment rendering,
# the event-timeline render and the diagnosis report must match their
# committed snapshots byte-for-byte.
golden:
	$(GO) test ./internal/harness -run TestGolden
	$(GO) test ./internal/events -run TestGoldenTimelineT4
	$(GO) test ./internal/diagnosis -run TestGoldenReport
	$(GO) test ./internal/service -run TestStreamGoldenTranscript
	$(GO) test ./internal/obs -run TestPromGolden

# Rewrite the golden files after an intentional behaviour change; review
# the diff before committing.
golden-update:
	$(GO) test ./internal/harness -run TestGolden -update
	$(GO) test ./internal/events -run TestGoldenTimelineT4 -update
	$(GO) test ./internal/diagnosis -run TestGoldenReport -update
	$(GO) test ./internal/service -run TestStreamGoldenTranscript -update-stream
	$(GO) test ./internal/obs -run TestPromGolden -update

# Streaming-vs-batch equivalence gate: the differential suite feeding the
# six scenario tracks through the online session at several chunk sizes,
# plus the end-to-end streaming service tests (limits, drain, golden
# transcript).
stream-smoke:
	$(GO) test ./internal/stream -run 'TestStreamMatchesBatch|TestSessionStreamsViolations' -count=1
	$(GO) test ./internal/service -run 'TestStream' -count=1

# Fleet-tier gate: the consistent-hash ring, async job manager and
# persistent store package suites, plus the in-process coordinator /
# failover / store-restart / limits-validation service tests (all three
# keyed endpoints) and the pinned content keys existing stores rely on.
fleet-smoke:
	$(GO) test ./internal/shard ./internal/jobs ./internal/store -count=1
	$(GO) test ./internal/service -run 'TestJob|TestCoordinator|TestStoreTier|TestLimits|TestContentKeys' -count=1

# The service's shared endpoint suite: each of these tests runs one subtest
# per keyed endpoint (run, mutate, search).
ENDPOINT_SUITE := TestEndpointMissThenHit|TestCanonicalizationSharesCacheEntry|TestBadRequests|TestSingleflightCoalescing|TestQueueFullReturns429|TestPerRequestTimeout|TestStoreTierServesAcrossRestart|TestCoordinatorForwardsAndCachesOnWorker

# Adversarial-search gate: the optimizer property/determinism suite, the
# S1 frontier-retreat acceptance test and the search rows of the endpoint
# suite.
search-smoke:
	$(GO) test ./internal/search -count=1
	$(GO) test ./internal/harness -run 'TestSearchFrontierRetreat' -count=1
	$(GO) test ./internal/service -run '^($(ENDPOINT_SUITE))$$/^search$$' -count=1

# Run each native fuzz target for $(FUZZTIME) on top of its committed seed
# corpus — a cheap crash/contract smoke, not a deep campaign.
fuzz-smoke:
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzSplineProject -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mutate -run '^$$' -fuzz FuzzMutantSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzStreamNDJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz FuzzSearchSpec -fuzztime $(FUZZTIME)

# Regenerate every evaluation table/figure (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/adassure-bench -seeds 3

# Developer / CI entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite under the race detector (the
# harness fans scenario grids across goroutines, so -race exercises the
# concurrent paths on every run), the golden-file regression suite and a
# short fuzz smoke of every native fuzz target.

GO ?= go

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-json tables golden golden-update fuzz-smoke stream-smoke fleet-smoke search-smoke cli-smoke

check: vet build race golden stream-smoke fleet-smoke search-smoke cli-smoke fuzz-smoke

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
# name / ns_per_op / allocs_per_op per benchmark to BENCH_$(BENCH).json, so
# the perf trajectory accumulates as comparable artifacts across changes.
# BENCH is the snapshot number: `make bench-json BENCH=7`.
BENCHTIME ?= 1s
BENCH ?= 6
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./internal/tools/benchjson > BENCH_$(BENCH).json

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

# Command-line observability smoke: short sim, mutate, search and dataset
# runs with their -metrics/-events outputs (plus -perfetto/-flight on the
# sim), each file checked by its reader — JSON metrics by python3's
# json.tool, event logs by adassure-trace events, and the sim's Perfetto
# file against adassure-trace's own export of the same event log.
CLI_SMOKE := $(CURDIR)/.cli-smoke
cli-smoke:
	rm -rf $(CLI_SMOKE) && mkdir -p $(CLI_SMOKE)
	$(GO) build -o $(CLI_SMOKE)/ ./cmd/adassure-sim ./cmd/adassure-mutate ./cmd/adassure-search ./cmd/adassure-dataset ./cmd/adassure-trace
	cd $(CLI_SMOKE) && ./adassure-sim -attack gnss-drift-spoof -duration 40 -flight 200 \
		-metrics sim-metrics.json -events sim-events.json -perfetto sim-perfetto.json > sim.txt
	cd $(CLI_SMOKE) && ./adassure-mutate -tracks urban-loop -duration 10 -mutants identity,sense-gnss-dropout=5 \
		-metrics mutate-metrics.json -events mutate-events.json > mutate.txt
	cd $(CLI_SMOKE) && ./adassure-search -tracks urban-loop -duration 10 -budget 3 -channels sense-gnss-quantize=0.05:2.5 \
		-metrics search-metrics.json -events search-events.json > search.txt
	cd $(CLI_SMOKE) && ./adassure-dataset -seeds 1 -duration 30 \
		-metrics dataset-metrics.json -events dataset-events.json > dataset.csv
	cd $(CLI_SMOKE) && for run in sim mutate search dataset; do \
		python3 -m json.tool $$run-metrics.json > /dev/null && \
		./adassure-trace events $$run-events.json > $$run-timeline.txt || exit 1; \
	done
	cd $(CLI_SMOKE) && ./adassure-trace perfetto sim-events.json | cmp - sim-perfetto.json
	cd $(CLI_SMOKE) && grep -q 's0/assertion/A13' sim-timeline.txt && grep -q '/s1/scenario' dataset-timeline.txt

# Run each native fuzz target for $(FUZZTIME) on top of its committed seed
# corpus — a cheap crash/contract smoke, not a deep campaign.
fuzz-smoke:
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzSplineProject$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzProjectRange$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzPolylineProject$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fusion -run '^$$' -fuzz '^FuzzEKFMatchesMatOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRealGCD$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mutate -run '^$$' -fuzz '^FuzzMutantSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzStreamNDJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzParseFrameMatchesDecoder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzSearchSpec$$' -fuzztime $(FUZZTIME)

# Regenerate every evaluation table/figure (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/adassure-bench -seeds 3

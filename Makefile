GO ?= go

.PHONY: build test vet fmt-check staticcheck layering simbench-build fuzz-smoke bench bench-fleet bench-scale chaos cover ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# cover runs the suite with coverage and prints the total; cover.out feeds
# the CI coverage summary/artifact.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and
# degrades to a skip otherwise (offline sandboxes can't install it); CI
# installs and enforces it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI enforces it)"; \
	fi

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

# layering fails if internal/engine depends on internal/obs: the engine
# reports only through its hooks, and obs.Collector.Attach subscribes to
# them from the outside.
layering:
	@deps=$$($(GO) list -deps ./internal/engine) || exit 1; \
	if echo "$$deps" | grep -qx 'github.com/lightllm-go/lightllm/internal/obs'; then \
		echo "internal/engine must not depend on internal/obs"; exit 1; \
	fi

# simbench-build vets and compiles the simulator benchmark (simbench/), a
# separate module outside ./..., so an API change that breaks it fails here
# rather than only in the benchmark pipeline.
simbench-build:
	cd simbench && $(GO) vet . && $(GO) build -o /dev/null .

# fuzz-smoke runs each native fuzz target for a short, bounded time on top
# of its committed seed corpus (testdata/fuzz), which plain `go test` only
# replays. FuzzWindowSorted drives the history window's in-place sorted
# mirror through random Add/Sampler sequences against a fresh sort;
# FuzzPoolOps drives the KV pool (slab handles, prefix cache, offload
# store) through random Allocate/AllocatePrefixed/Extend/Free sequences
# against a map-based model.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWindowSorted$$' -fuzztime 10s ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzPoolOps$$' -fuzztime 10s ./internal/kv/

# bench runs the scheduler hot-path micro-benchmarks and records ns/op and
# allocs/op in BENCH_hotpath.json so future PRs can track the perf
# trajectory (see ROADMAP.md "Hot path & complexity"), then the fleet-scale
# scenario family into BENCH_fleet.json.
bench:
	./scripts/bench.sh

# bench-fleet refreshes only BENCH_fleet.json (the standard cmd/fleetsim
# scenario set), failing unless every scenario reproduces its claim, and
# runs the traced-vs-untraced parity check, without the micro-bench suite.
bench-fleet:
	./scripts/bench.sh fleet

# bench-scale refreshes BENCH_scale.json: the streamed million-request day
# trace (fleetsim -scenario scale) replayed SCALE_REPEAT times, hard-failing
# unless every repeat's report is byte-identical. Scale up with e.g.
# `make bench-scale SCALE_REQUESTS=10000000`.
bench-scale:
	SCALE_REQUESTS=$(SCALE_REQUESTS) SCALE_REPEAT=$(SCALE_REPEAT) \
		./scripts/bench.sh scale

# chaos sweeps the fault-injection suite under the race detector: randomized
# crash/retry conservation across CHAOS_SEEDS seeds (default 5), the KV-link
# backoff/busy-monotonicity properties, the 4-seed faults-disabled
# bit-identical equivalence pin, the 4-seed prefix-caching-disabled
# equivalence pin, exactly-once conservation through the full KV reuse
# hierarchy (cache hits, eviction, offload, crash-induced cache drops) under
# a crash storm, the chunked-prefill pins (chunking-disabled bit-identity,
# greedy-vs-degenerate-SLO policy equivalence), and exactly-once
# conservation through chunked prefill × prefix-cache hits × crash storms,
# and replay determinism of the fault-storm scenario.
# Widen with e.g. `make chaos CHAOS_SEEDS=50`.
CHAOS_SEEDS ?= 5
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 \
		-run 'TestFaultConservation|TestNoRecoveryLosesTerminally|TestCrashRecoveryWithoutAdmission|TestFaultsDisabledEquivalence|TestBackoffProperties|TestLinkBusyNeverRegresses|TestCrashEvacuatesEverything|TestPrefixDisabledEquivalence|TestPrefixCacheConservation|TestChunkingDisabledEquivalence|TestChunkedConservation|TestChunkPolicyEquivalence|TestFaultStormReplayChaos' \
		./internal/cluster/ ./internal/kv/ ./internal/engine/

ci: build vet fmt-check staticcheck layering simbench-build test chaos fuzz-smoke

GO ?= go

.PHONY: ci fmt vet staticcheck build test race bench metrics bench-obs bench-difftest bench-check bench-smoke store soak-smoke soak difftest fuzz-smoke explain-smoke serve

ci: fmt vet staticcheck build race metrics store difftest fuzz-smoke explain-smoke soak-smoke bench-check bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck when installed; offline fallback: gofmt -s (simplification
# lint) on top of the vet target's analyzers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to gofmt -s"; \
		out="$$(gofmt -s -l .)"; \
		if [ -n "$$out" ]; then \
			echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
		fi; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Prometheus exposition + per-route histograms under the race detector.
metrics:
	$(GO) test -run TestMetrics -race ./internal/service

# Tracing-hook and provenance-recorder overhead vs the baselines
# committed in BENCH_obs.json.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkTraceOverhead|BenchmarkProvenanceOverhead' -benchtime 2s -benchmem .

# Generator + differential-harness throughput vs BENCH_difftest.json.
bench-difftest:
	$(GO) test -run '^$$' -bench 'BenchmarkRandGen|BenchmarkDiffTest' -benchtime 2s -benchmem .

# Bench-regression gates: BenchmarkSolveCorpus (full-corpus sweep under
# both clause backends) against the baseline in BENCH_engine.json, the
# provenance-off press1 run against the provenance section of
# BENCH_obs.json (the recorder must cost nothing when disabled), the
# service's warm-hit and admission-shed paths against
# BENCH_service.json (shedding must stay cheaper than serving a cache
# hit), and the /v1/batch corpus sweep (GOMAXPROCS workers must beat
# one worker). Fails on a regression past each gate's
# band or if the closure backend stops beating the interpreter.
# XLP_BENCH_WRITE=1 refreshes the baselines.
bench-check:
	XLP_BENCH_CHECK=1 $(GO) test -count=1 -run '^TestBenchRegressionGate$$|^TestProvenanceBenchGate$$|^TestServiceBenchGate$$|^TestBatchScalingGate$$' -v .

# The repository benchmark's own module (bench/, outside ./...): vet,
# unit tests, and every workload at toy size with the golden-hash
# checks (about 6 s), so a change that alters any analysis result fails
# CI, not only a full benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Disk-backed result store: the codec/store unit tests plus the service
# integration (warm restart, corrupt-entry-is-a-miss) under the race
# detector.
store:
	$(GO) test -race ./internal/service/store
	$(GO) test -race -run 'TestStore' ./internal/service

# Race-clean soak gate: >=2k mixed requests at 8x GOMAXPROCS over one
# disk store with restart and cancellation injection, asserting zero
# non-sentinel outcomes, Retry-After on every shed, a >=90% warm hit
# ratio across restarts, no goroutine leaks, and bounded heap growth.
# soak-smoke is the CI-sized run; soak scales it up for longer runs
# (override the XLP_SOAK_* knobs as needed).
soak-smoke:
	XLP_SOAK=1 $(GO) test -race -count=1 -run '^TestSoakSmoke$$' -v -timeout 20m ./internal/soak

soak:
	XLP_SOAK=1 XLP_SOAK_REQUESTS=$${XLP_SOAK_REQUESTS:-20000} \
	XLP_SOAK_RESTARTS=$${XLP_SOAK_RESTARTS:-10} \
	$(GO) test -race -count=1 -run '^TestSoakSmoke$$' -v -timeout 120m ./internal/soak

# Explain-path smoke test: every corpus benchmark through `xlp why
# -format dot` under both clause backends, each output validated as a
# well-formed derivation graph.
explain-smoke:
	$(GO) build -o bin/xlp ./cmd/xlp
	$(GO) run ./internal/tools/dotcheck -xlp bin/xlp

# Differential testing: random programs through every backend-pair and
# metamorphic oracle. Any disagreement is shrunk into
# internal/difftest/testdata/regressions/ and fails the target.
difftest:
	$(GO) run ./cmd/xlp difftest -n 500 -seed 1

# Run each native fuzz target briefly (committed seeds + FUZZTIME of
# random inputs). A crasher is minimized into the package's
# testdata/fuzz/ corpus by the Go fuzzing engine.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseProlog$$' -fuzztime $(FUZZTIME) ./internal/prolog
	$(GO) test -run '^$$' -fuzz '^FuzzReadTermRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/prolog
	$(GO) test -run '^$$' -fuzz '^FuzzUnify$$' -fuzztime $(FUZZTIME) ./internal/prolog
	$(GO) test -run '^$$' -fuzz '^FuzzTrieInsertLookup$$' -fuzztime $(FUZZTIME) ./internal/prolog
	$(GO) test -run '^$$' -fuzz '^FuzzTrieUnify$$' -fuzztime $(FUZZTIME) ./internal/prolog
	$(GO) test -run '^$$' -fuzz '^FuzzTrieAbstractUnify$$' -fuzztime $(FUZZTIME) ./internal/depthk
	$(GO) test -run '^$$' -fuzz '^FuzzParseFL$$' -fuzztime $(FUZZTIME) ./internal/fl
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeGroundness$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeDepthK$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCompileSolve$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStoreDecode$$' -fuzztime $(FUZZTIME) ./internal/service/store

serve:
	$(GO) run ./cmd/xlpd

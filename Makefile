GO ?= go

.PHONY: build test vet fmt-check race bench bench-smoke gen-smoke chaos serve-smoke restart-smoke docs-check ci all

all: ci

## build: compile every package and command.
build:
	$(GO) build ./...

## test: run the full test suite (tier-1 gate).
test:
	$(GO) test ./...

## vet: run go vet over every package.
vet:
	$(GO) vet ./...

## fmt-check: fail when any Go source is not gofmt-formatted or gofmt
## cannot parse it (the staged benchmark inputs under .perfbench/ are
## not sources).
fmt-check:
	@out=$$(gofmt -l *.go cmd examples internal perfbench) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## race: run the concurrency-sensitive packages under the race detector,
## including the parallel-runner determinism test over the full corpus.
race:
	$(GO) test -race ./internal/core/... ./internal/testkit/... ./internal/fault/... ./internal/trace/... ./internal/obs/... ./internal/cache/... ./internal/server/... ./internal/source/...

## bench: run the pipeline benchmarks (sequential vs parallel), the
## snapshot-store microbenchmarks (cold vs warm load,
## docs/PERFORMANCE.md), and the generated-corpus scale sweep —
## cold/warm pipeline cost over 1x and 10x synthetic corpora
## (docs/CORPUSGEN.md), recorded in BENCH_pipeline.json's scale_sweep
## section. The sweep runs here only, never in ci.
bench:
	$(GO) test -bench 'BenchmarkPipeline' -benchmem -run '^$$' .
	$(GO) test -bench . -benchmem -run '^$$' ./internal/source/
	$(GO) run ./cmd/benchreport -scale-sweep -only cost

## gen-smoke: generate a 10x synthetic corpus into a temp dir and push
## it through the static-only pipeline — every emitted file must parse,
## every app must identify structures, and the candidate ledger must
## cover the manifest exactly (docs/CORPUSGEN.md).
gen-smoke:
	$(GO) test -run 'TestGenSmoke' -count=1 ./internal/corpusgen/

## bench-smoke: compile and run every benchmark for one iteration — a
## CI gate that keeps the benchmarks building and executable without
## asserting thresholds.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/source/

## chaos: sweep LLM fault profiles under the race detector — the
## determinism-under-chaos and graceful-degradation gate — plus the
## multi-backend failover drill: a hard primary outage must complete
## the full corpus through the secondary with zero degraded files and
## byte-identical output (docs/RESILIENCE.md).
chaos:
	$(GO) test -race -run 'Chaos|ZeroFaultProfile|HardOutage|BudgetExhaustion|Failover|PrimaryOutage|SingleHealthyBackend' ./internal/core/
	$(GO) test -race ./internal/resilience/ ./internal/llm/

## serve-smoke: end-to-end service exercise — a real wasabid server on a
## loopback port driven through analyze → poll → report → trace →
## metrics, with three tenants submitting concurrently, every warm job
## served from the cache, and /metrics proving the slots overlapped
## (docs/SERVICE.md, docs/SCHEDULING.md); plus the scheduler's
## wall-clock overlap, fairness, and shared-snapshot-store concurrency
## proofs, and the per-job trace-isolation and structured-log
## correlation proofs (docs/OBSERVABILITY.md).
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestJobsOverlapWallClock|TestSlowTenantCannotStarveFast|TestConcurrentJobsShareSnapshotStore|TestJobTraceIsolationUnderConcurrency|TestStructuredLogCorrelation' -count=1 ./internal/server/

## restart-smoke: cold-start a real wasabid binary with a persistent
## cache directory, run one job, SIGTERM-drain it, relaunch over the
## same directory and prove the warm job reproduces the cold report
## byte-for-byte with zero parses, zero extractions and zero fresh LLM
## spend — the portable retry-facts restart guarantee
## (docs/PERFORMANCE.md, docs/ARCHITECTURE.md).
restart-smoke:
	$(GO) test -run 'TestRestartSmokeProcess' -count=1 ./internal/server/

## docs-check: fail on dangling doc references — .md paths mentioned in
## Go sources, relative links in README.md and docs/*.md, and internal
## packages missing a paper-section (§) godoc reference.
docs-check:
	sh scripts/docs_check.sh

## ci: the local gate — everything the driver checks, in one target.
ci: build fmt-check test vet chaos serve-smoke restart-smoke bench-smoke gen-smoke docs-check

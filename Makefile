# Local entry points mirroring .github/workflows/ci.yml exactly, so "works
# locally" and "passes CI" are the same statement.

GO ?= go

.PHONY: check build vet fmt-check lint escapes escapes-baseline test test-race bench bench-smoke bench-json bench-compare bit-identity profile fmt fuzz-smoke fault-smoke serve-smoke fleet-smoke fastcap-smoke warm-smoke

## check: the full gate — tier-1 verify + vet + gofmt + coscale-lint +
## escape-analysis gate + the parallel-search bit-identity property tests
check: build vet fmt-check lint escapes test bit-identity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## test-race: full suite under the race detector
test-race:
	$(GO) test -race ./...

## bench: one iteration of every benchmark (compile + smoke, not timing)
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

## bench-smoke: the hot-path regression gate — alloc-budget tests, one
## iteration of the headline search/epoch and comparison-policy benchmarks,
## and a short coscale-bench diff against the committed baseline (mirrors
## CI's bench-smoke)
bench-smoke:
	$(GO) test -run 'ZeroAlloc|DeterministicUnderReuse|GoldenBitIdentical' -count=1 . ./internal/sim
	GOMAXPROCS=1 $(GO) test -run 'ZeroAlloc|DeterministicUnderReuse|GoldenBitIdentical' -count=1 . ./internal/sim
	$(GO) test -bench 'BenchmarkSearch16Cores|BenchmarkEpochSimulation|BenchmarkOfflineDecide16Cores|BenchmarkCPUOnlyDecide16Cores' -benchtime=1x -benchmem -run='^$$' .
	$(MAKE) bench-compare

## bit-identity: the parallel-vs-serial determinism gate behind DESIGN.md §11
## — the seeded property tests and batch-equivalence tests under the race
## detector, at both GOMAXPROCS=1 (forced-serial lane resolution) and the
## machine default, so scheduler width can never reach a decision bit
bit-identity:
	GOMAXPROCS=1 $(GO) test -race -count=1 \
		-run 'ParallelBitIdentical|ParallelDisableTablesAgrees|BatchDecideMatchesSequential|DecideAllOneShot|SearchStatsUnderBatch' ./internal/core
	$(GO) test -race -count=1 \
		-run 'ParallelBitIdentical|ParallelDisableTablesAgrees|BatchDecideMatchesSequential|DecideAllOneShot|SearchStatsUnderBatch' ./internal/core

## bench-json: regenerate BENCH_baseline.json (ns/op, allocs/op, figure
## wall-times; see DESIGN.md §7 for the schema)
bench-json:
	$(GO) run ./cmd/coscale-bench -out BENCH_baseline.json

## bench-compare: diff a fresh (short) coscale-bench run against the
## committed baseline and fail on regression. Allocation counts gate
## strictly; ns/op gates at 4x to absorb machine differences and the short
## benchtime's noise (cmd/coscale-bench documents the policy).
bench-compare:
	$(GO) run ./cmd/coscale-bench -benchtime 100ms -figure-budget 2000000 \
		-threshold 4 -compare BENCH_baseline.json

## profile: CPU and allocation profiles of the headline benchmarks
## (inspect with `go tool pprof cpu.out` / `go tool pprof mem.out`)
profile:
	$(GO) run ./cmd/coscale-bench -cpuprofile cpu.out -memprofile mem.out -out /dev/null
	@echo "wrote cpu.out and mem.out; inspect with: go tool pprof cpu.out"

## fuzz-smoke: a short burst of every native fuzz target (go allows one
## -fuzz target per invocation, hence the separate runs)
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/freq -run '^$$' -fuzz '^FuzzNewLadder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/freq -run '^$$' -fuzz '^FuzzNewLadderSteps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzProfileValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzLookup$$' -fuzztime $(FUZZTIME)

## fault-smoke: the fault-injection and graceful-degradation suite under the
## race detector (mirrors CI's fault-smoke job)
fault-smoke:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'Fault|Hardened|ErrorTolerance' ./internal/sim ./internal/policy ./internal/experiments

## serve-smoke: the serving-layer acceptance suite under the race detector —
## golden bit-identity vs the experiments runner, queue overflow → 429,
## mid-stream cancellation freeing the worker slot, cache hits in /metrics,
## and a real boot/SIGTERM drain of cmd/coscale-serve (mirrors CI's
## serve-smoke job)
serve-smoke:
	$(GO) test -race -count=1 ./internal/server ./internal/cache ./internal/buildinfo ./cmd/coscale-serve

## fleet-smoke: the fault-tolerant orchestration suite under the race
## detector — the seeded chaos e2e (a worker killed mid-sweep, dropped
## heartbeats, cut streams; results bit-identical to the single-node runner),
## coordinator crash/restart recovery from the journal with zero
## recomputation, torn-tail journal recovery, and the lease/ring/backoff/
## chaos unit tests (mirrors CI's fleet-smoke job; see DESIGN.md §12)
fleet-smoke:
	$(GO) test -race -count=1 ./internal/fleet ./cmd/coscale-fleet

## fastcap-smoke: the fleet-scale power-capping suite under the race
## detector — the fastcap allocator/frontier/rebalancer property tests
## (Float64bits-identical allocations across replays and node orderings,
## budget conservation, allocation-free steady state) — then the zero-alloc
## gates of the PowerCap, frontier and rebalancer walks and one iteration of
## their benchmarks, plus a reduced-grid run of the -exp fastcap cap-event
## experiment (mirrors CI's fastcap-smoke job; see DESIGN.md §13)
fastcap-smoke:
	$(GO) test -race -count=1 ./internal/fastcap
	$(GO) test -count=1 -run 'PowerCapZeroAlloc|FrontierBuildZeroAlloc|RebalancerEpochZeroAlloc' .
	$(GO) test -run='^$$' -bench 'BenchmarkPowerCap[0-9]|BenchmarkFrontier' -benchtime=1x -benchmem .
	$(GO) test -race -count=1 -run 'TestFastCap' ./internal/experiments
	$(GO) run -race ./cmd/coscale-experiments -exp fastcap -fastcap-nodes 3 -fastcap-epochs 12

## warm-smoke: the warm-start search suite under the race detector — the
## controller-level warm property tests (bound re-validation, Reset bit
## identity, parallel-lane bit identity, zero-alloc steady state), the
## sim-level golden replay, the ablation gates, and a reduced-budget run of
## the -exp warmstart ablation (mirrors CI's warm-smoke job; DESIGN.md §14)
warm-smoke:
	$(GO) test -race -count=1 -run 'TestWarm|TestMinParallelItems|TestRelDelta' ./internal/core ./internal/sim
	$(GO) test -race -count=1 -run 'TestWarmStart' ./internal/experiments
	$(GO) run -race ./cmd/coscale-experiments -exp warmstart -budget 100000000

vet:
	$(GO) vet ./...

## fmt-check: fail if any file needs gofmt (fmt rewrites in place)
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

## lint: the domain-invariant analyzers, per-package and interprocedural
## (see internal/lint)
lint:
	$(GO) run ./cmd/coscale-lint ./...

## escapes: the escape-analysis regression gate — compiler heap escapes in
## the transitive //hot:path closure vs ESCAPES_baseline.json
escapes:
	$(GO) run ./cmd/coscale-lint -escapes

## escapes-baseline: re-record ESCAPES_baseline.json after a reviewed
## change to hot-path allocation behaviour
escapes-baseline:
	$(GO) run ./cmd/coscale-lint -escapes -update

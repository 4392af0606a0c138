# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test lint race ci bench benchmark bench-all paper paper-small examples serve fleet-smoke clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Static checks: vet, the in-tree gpulint suite (determinism and cache-key
# contracts; see DESIGN.md "Determinism contract"), and staticcheck when it
# is installed locally (CI pins and runs it unconditionally).
lint:
	go vet ./...
	go run ./cmd/gpulint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

# Race-detector stress over the concurrency-bearing packages (mirrors the
# CI race job): the dynamic counterpart to gpulint's static
# guardedby/ctxflow contracts. The cycle loop itself is serial; internal/gpu
# rides along for its cancellation poll.
race:
	go test -race -count=3 ./internal/fleet ./internal/server ./internal/sim ./internal/gpu

# Mirror of .github/workflows/ci.yml: build, lint, race-enabled tests, the
# repository benchmark's own tests (a module of its own, so ./... does not
# reach it), and short fuzz smokes of the kernel-completion and request-wire
# properties.
ci: lint
	go build ./...
	go test -race ./...
	go -C benchmark test ./...
	go test -run='^$$' -fuzz=FuzzKernel -fuzztime=10s .
	go test -run='^$$' -fuzz=FuzzRequestJSON -fuzztime=10s ./internal/sim

# Headline benchmarks (simulator throughput and three figure experiments),
# recorded as JSON so CI can diff against the committed baseline. The figure
# experiments run once (-benchtime=1x: one iteration is a whole
# experiment); the throughput microbenches are pinned to a
# fixed 20-iteration count because a single ~10ms run drifts ~20% between
# otherwise identical invocations (the stencil number was recorded at ~300k
# simcycles/s in one run and 249k in the committed BENCH_3.json for exactly
# this reason). BENCH_OUT is overridable so a new baseline generation never
# silently overwrites (or keeps re-targeting) an old one. Each go test
# invocation also drops CPU and heap profiles into BENCH_PROF (uploaded as
# CI artifacts), so a regression flagged by the JSON diff comes with the
# profile that explains it.
BENCH_OUT ?= results/BENCH_28.json
BENCH_PROF ?= results/prof
bench:
	mkdir -p $(BENCH_PROF)
	go test -run='^$$' -bench 'Fig5|Fig8|Fig14' -benchtime=1x -benchmem \
		-cpuprofile $(BENCH_PROF)/figs.cpu.pprof -memprofile $(BENCH_PROF)/figs.mem.pprof \
		-o $(BENCH_PROF)/bench.test . | tee $(BENCH_PROF)/bench.out
	go test -run='^$$' -bench 'SimulatorThroughput' -benchtime=20x -benchmem \
		-cpuprofile $(BENCH_PROF)/micro.cpu.pprof -memprofile $(BENCH_PROF)/micro.mem.pprof \
		-o $(BENCH_PROF)/bench.test . | tee -a $(BENCH_PROF)/bench.out
	go run ./cmd/benchjson -out $(BENCH_OUT) < $(BENCH_PROF)/bench.out

# The repository benchmark BENCHMARK.json declares (benchmark/README.md):
# five workloads, each in a process of its own, end-to-end metrics by name.
benchmark:
	bash benchmark/run.sh -workload all -seed 1

# One benchmark per reproduced table/figure plus microbenchmarks.
bench-all:
	go test -bench=. -benchmem ./...

# Regenerate every table/figure at full scale (CSV in results/).
paper:
	go run ./cmd/paperbench -out results

paper-small:
	go run ./cmd/paperbench -scale small -out results

# Run the simulation daemon (POST /v1/simulate on :8080; see README).
serve:
	go run ./cmd/gpuschedd

# End-to-end fleet check: 2 shards + router + loadgen, asserting a
# nonzero fleet dedup hit rate (see DESIGN.md "Fleet architecture").
fleet-smoke:
	bash scripts/fleet_smoke.sh

examples:
	go run ./examples/quickstart
	go run ./examples/ctathrottling
	go run ./examples/blockpairing
	go run ./examples/concurrentkernels
	go run ./examples/timeline

# Only what is generated and git-ignored: results/ also holds the committed
# CSVs and BENCH_*.json records.
clean:
	rm -rf results/prof results/.simcache timeline_*.csv .bench_build benchmark/out

# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test lint race ci check-results benchmark bench-all paper paper-small examples serve fleet-smoke clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Static checks: vet (of the benchmark module too, which compiles against
# sim.Request, sim.SchedSpec and sm.Policy), the in-tree gpulint suite (determinism and cache-key
# contracts; see DESIGN.md "Determinism contract"), and staticcheck when it
# is installed locally (CI pins and runs it unconditionally).
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	test -z "$$(git ls-files '*.test')" || { echo "tracked test binaries:"; git ls-files '*.test'; exit 1; }
	go vet ./...
	go -C benchmark vet ./...
	go run ./cmd/gpulint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

# Race-detector stress over the concurrency-bearing packages (mirrors the
# CI race job). This is the lock contract: TestShardHealthConcurrent,
# TestRouterCacheConcurrent and TestServiceCountersConcurrent fail here if
# any mutex section of fleet.Shard, the router cache (fleet.respCache) or
# sim.Service is dropped. The cycle loop itself is serial;
# internal/gpu rides along for its cancellation poll, and internal/workloads
# for TestSharedTemplates: concurrent warps share one program template.
race:
	go test -race -count=3 ./internal/fleet ./internal/server ./internal/sim ./internal/gpu ./internal/workloads

# Mirror of .github/workflows/ci.yml: build, lint (which also fails on a
# tracked *.test binary), race-enabled tests, the
# repository benchmark's own tests (a module of its own, so ./... does not
# reach it), one iteration of every internal microbenchmark, short fuzz
# smokes of the kernel-completion, request-wire, partition-wake,
# recency-ordered-tag-store, affine-coalescing and refused-head properties,
# the results gate, every example run end to end (the timeline CSVs they
# write are removed), and the daemon and fleet smokes.
ci: lint
	go build ./...
	go test -race ./...
	go -C benchmark test ./...
	go test -run='^$$' -bench=. -benchtime=1x ./internal/...
	go test -run='^$$' -fuzz=FuzzKernel -fuzztime=10s .
	go test -run='^$$' -fuzz=FuzzRequestJSON -fuzztime=10s ./internal/sim
	go test -run='^$$' -fuzz=FuzzPartitionWake -fuzztime=10s ./internal/mem
	go test -run='^$$' -fuzz=FuzzCacheTags -fuzztime=10s ./internal/mem
	go test -run='^$$' -fuzz=FuzzCoalesceAffine -fuzztime=10s ./internal/mem
	go test -run='^$$' -fuzz=FuzzRefusedHeads -fuzztime=10s ./internal/gpu
	$(MAKE) check-results
	$(MAKE) examples
	rm -f timeline_*.csv
	bash scripts/daemon_smoke.sh
	$(MAKE) fleet-smoke

# The results gate: regenerate every committed result and fail on any
# difference. Both halves compare what the simulator computed, never how
# long the host took, so the gate means the same on every machine.
#  1. Every results/*.csv, rerun at full scale with the cache off, must be
#     byte-identical, and so must the rendered tables and notes in
#     results/paperbench_full.txt (paperbench's stdout; wall times go to
#     stderr).
#  2. The repository benchmark must pass its own checks (exit status), and
#     each workload's result_digest must equal the newest results/BENCH_*.json.
# The fresh files stay in .bench_build/check-results: the CSVs, the tables
# as text and bench.json, the benchmark record CI uploads.
check-results:
	rm -rf .bench_build/check-results
	mkdir -p .bench_build/check-results
	go run ./cmd/paperbench -cache off -out .bench_build/check-results > .bench_build/check-results/paperbench.txt
	for f in $$(cd results && ls *.csv) $$(cd .bench_build/check-results && ls *.csv); do \
		cmp results/$$f .bench_build/check-results/$$f || exit 1; \
	done
	cmp results/paperbench_full.txt .bench_build/check-results/paperbench.txt
	bash benchmark/run.sh -workload all -seed 1 -seconds 2 -out .bench_build/check-results/bench.json
	jq -r '.runs[] | .workload + " " + .result_digest' .bench_build/check-results/bench.json > .bench_build/check-results/digests
	base=$$(ls results/BENCH_*.json | sort -V | tail -1) && echo "result digests against $$base" && \
		jq -r '.runs[] | .workload + " " + .result_digest' "$$base" | diff - .bench_build/check-results/digests

# The repository benchmark BENCHMARK.json declares (benchmark/README.md):
# five workloads, each in a process of its own, end-to-end metrics by name.
benchmark:
	bash benchmark/run.sh -workload all -seed 1

# Per-package microbenchmarks (internal/gpu, internal/sm, internal/mem).
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
	rm -rf results/.simcache timeline_*.csv .bench_build benchmark/out

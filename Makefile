# Tier-1 verification for this repo. `make check` is what CI and every PR
# must keep green: build, vet, the full test suite under the race detector
# (the async exchange paths are required to be race-clean), then the tests
# of the nested end-to-end benchmark module, which `./...` does not reach.
# `make ci` is the CI entry point: formatting gate first, then check.
.PHONY: ci check fmt-check build vet test race benchmark-test bench bench-kernels bench-paper bench-smoke staticcheck fuzz-smoke

ci: fmt-check staticcheck check

check: build vet race benchmark-test

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

# Static analysis beyond vet. The tool is not vendored, so the target is a
# no-op where it isn't installed (CI installs a pinned version; see
# .github/workflows/ci.yml) rather than making local `make ci` fail on a
# missing binary.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

test:
	go test ./...

race:
	go test -race ./...

# benchmark/ is its own module (dgs/benchmark): traced loop == production
# loop, and BENCHMARK.json == what the program reports.
benchmark-test:
	go test -C benchmark ./...

# Benchmarks live next to `check` but stay out of it so the race tier stays
# fast. `make bench` refreshes the tracked hot-path baseline (BENCH_PR2.json:
# kernel speedups vs the frozen pre-PR GEMMs plus the zero-allocation
# checks), then spot-runs the paper-shape benchmarks once each in short mode
# as a guard that they still complete. BENCHTIME trades accuracy for speed
# on the microbenches, PAPER_BENCHTIME on the paper suite, e.g.
# `make bench BENCHTIME=100ms PAPER_BENCHTIME=1x`.
BENCHTIME ?= 1s
PAPER_BENCHTIME ?= 1x

bench:
	go run ./cmd/dgs-bench -microbench -benchtime $(BENCHTIME)
	go run ./cmd/dgs-bench -pipebench
	go run ./cmd/dgs-bench -serverbench
	go run ./cmd/dgs-bench -ckptbench
	go run ./cmd/dgs-bench -wirebench
	go run ./cmd/dgs-bench -aggbench
	go run ./cmd/dgs-bench -readbench
	$(MAKE) bench-paper PAPER_BENCHTIME=$(PAPER_BENCHTIME)

# Forward/backward alone: one training step of each model the end-to-end
# benchmark trains (ns/op, B/op, allocs/op), every GEMM shape such a step
# performs, and the blocked-vs-baseline crossover that places
# smallGemmVolume. DESIGN.md §8 quotes these. Then the server side alone:
# Push under fleet contention at both candidate block sizes (ns/push,
# allocs/op, updates applied per write-lock hold). DESIGN.md §11 quotes it.
KERNEL_BENCHTIME ?= 1s

bench-kernels:
	go test -run '^$$' -bench 'BenchmarkTrainStep' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/nn
	go test -run '^$$' -bench 'BenchmarkGemm' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/tensor
	go test -run '^$$' -bench 'BenchmarkPushFleet' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/ps

# The paper benchmarks run full (short-scale) training per artefact, so the
# suite needs more than go test's default 10-minute budget on small hosts.
bench-paper:
	go test -short -bench . -benchtime $(PAPER_BENCHTIME) -run '^$$' -timeout 60m

# Regression gate for CI: a fast microbench pass compared against the
# tracked baseline with dgs-benchdiff (machine-relative speedups + the
# zero-allocation invariants), then the pipelined-exchange gate (the
# depth-2-vs-depth-1 steps/sec ratio is measured within one run, so the
# 1.3x floor is portable, as is the zero-alloc TCP exchange), then the
# many-worker server gates (all within-run ratios: dirty-tracking vs
# single-mutex pushes/sec at 8 workers floored at 2x, residual-summary
# secondary gather vs the full-scan Top-k baseline floored at 3x, and the
# cnn workload's scan/skip ratio floored at 0.5 under auto block-shift),
# then the wire gate (quantized bytes/step on the embed workload must stay
# at or under 0.5x codec 0, again a within-run ratio), then the
# aggregation-tier gate (64 TCP workers through 4 aggregators vs direct in
# the same run; the tier must multiply saturated pushes/sec by at least 3x
# with the encode-once share cache demonstrably active), and finally the
# read-path gate (push throughput under concurrent full-model scrapers must
# stay at least 2x the frozen full-lock snapshot path — a within-run ratio —
# and the replica must drain bitwise onto the upstream M over a lossy codec
# with its poll gap bounded). SMOKE_OUT, PIPE_SMOKE_OUT, SERVER_SMOKE_OUT,
# CKPT_SMOKE_OUT, WIRE_SMOKE_OUT, AGG_SMOKE_OUT and READ_SMOKE_OUT are
# uploaded as CI artifacts.
SMOKE_BENCHTIME ?= 100ms
SMOKE_OUT ?= bench-smoke.json
PIPE_SMOKE_STEPS ?= 60
PIPE_SMOKE_OUT ?= pipe-smoke.json
SERVER_SMOKE_PUSHES ?= 32
SERVER_SMOKE_OUT ?= server-smoke.json
CKPT_SMOKE_PUSHES ?= 64
CKPT_SMOKE_OUT ?= ckpt-smoke.json
WIRE_SMOKE_STEPS ?= 16
WIRE_SMOKE_OUT ?= wire-smoke.json
AGG_SMOKE_PUSHES ?= 24
AGG_SMOKE_OUT ?= agg-smoke.json
READ_SMOKE_PUSHES ?= 32
READ_SMOKE_OUT ?= read-smoke.json

bench-smoke:
	go run ./cmd/dgs-bench -microbench -benchtime $(SMOKE_BENCHTIME) -json $(SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -baseline BENCH_PR2.json -current $(SMOKE_OUT)
	go run ./cmd/dgs-bench -pipebench -pipe-steps $(PIPE_SMOKE_STEPS) -json $(PIPE_SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -pipeline -baseline BENCH_PR4.json -current $(PIPE_SMOKE_OUT)
	go run ./cmd/dgs-bench -serverbench -server-pushes $(SERVER_SMOKE_PUSHES) -json $(SERVER_SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -server -baseline BENCH_PR7.json -current $(SERVER_SMOKE_OUT)
	go run ./cmd/dgs-bench -ckptbench -server-pushes $(CKPT_SMOKE_PUSHES) -json $(CKPT_SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -checkpoint -baseline BENCH_PR6.json -current $(CKPT_SMOKE_OUT)
	go run ./cmd/dgs-bench -wirebench -wire-steps $(WIRE_SMOKE_STEPS) -json $(WIRE_SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -wire -baseline BENCH_PR8.json -current $(WIRE_SMOKE_OUT)
	go run ./cmd/dgs-bench -aggbench -agg-pushes $(AGG_SMOKE_PUSHES) -json $(AGG_SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -agg -baseline BENCH_PR9.json -current $(AGG_SMOKE_OUT)
	go run ./cmd/dgs-bench -readbench -read-pushes $(READ_SMOKE_PUSHES) -json $(READ_SMOKE_OUT)
	go run ./cmd/dgs-benchdiff -read -baseline BENCH_PR10.json -current $(READ_SMOKE_OUT)

# Short local fuzz pass over the wire and checkpoint decoders and the Top-k
# kernel's equivalence with its frozen oracle (the scheduled CI job runs each
# target for minutes; see .github/workflows/fuzz.yml).
FUZZ_SMOKE_TIME ?= 10s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzDecodeAny$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzTopKEquivalence$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzTernaryDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/quant
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/checkpoint
	go test -run '^$$' -fuzz '^FuzzReplicaFrame$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/replica

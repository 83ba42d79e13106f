# Tier-1 verification for this repo. `make check` is what CI and every PR
# must keep green: build, vet, the full test suite under the race detector
# (the async exchange paths are required to be race-clean), then the tests
# of the nested end-to-end benchmark module, which `./...` does not reach.
# `make ci` is the CI entry point: formatting gate first, then check.
.PHONY: ci check fmt-check build vet test race benchmark-test bench bench-kernels bench-paper staticcheck fuzz-smoke

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
# fast. The end-to-end numbers come from benchmark/ (`bash benchmark/run.sh`;
# see benchmark/README.md). `make bench` runs the kernel benchmarks, then
# spot-runs the paper-shape benchmarks once each in short mode as a guard
# that they still complete. KERNEL_BENCHTIME trades accuracy for speed on
# the kernels, PAPER_BENCHTIME on the paper suite, e.g.
# `make bench KERNEL_BENCHTIME=100ms PAPER_BENCHTIME=1x`.
PAPER_BENCHTIME ?= 1x

bench: bench-kernels bench-paper

# Forward/backward alone: one training step of each model the end-to-end
# benchmark trains (ns/op, B/op, allocs/op), every GEMM shape such a step
# performs, and the blocked-vs-baseline crossover that places
# smallGemmVolume. DESIGN.md §8 quotes these. Then the server side alone:
# Push under fleet contention at both candidate block sizes (ns/push,
# allocs/op, updates applied per write-lock hold), and Eq. 6 on ResNet-18 at
# the paper's scale (a ≈0.6 GB server). DESIGN.md §11 and §13 quote it.
KERNEL_BENCHTIME ?= 1s

bench-kernels:
	go test -run '^$$' -bench 'BenchmarkTrainStep' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/nn
	go test -run '^$$' -bench 'BenchmarkGemm' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/tensor
	go test -run '^$$' -bench 'BenchmarkPushFleet' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/ps

# The paper benchmarks run full (short-scale) training per artefact, so the
# suite needs more than go test's default 10-minute budget on small hosts.
bench-paper:
	go test -short -bench . -benchtime $(PAPER_BENCHTIME) -run '^$$' -timeout 60m

# Short local fuzz pass over the wire and checkpoint decoders, the Top-k
# kernel's equivalence with its frozen oracle, the encoder's size bound and
# the streaming kernels' AVX2 bodies against their Go twins (the scheduled
# CI job runs each target for minutes; see .github/workflows/fuzz.yml).
FUZZ_SMOKE_TIME ?= 10s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzDecodeAny$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzTopKEquivalence$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzEncodedLenBound$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzStreamKernels$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/tensor
	go test -run '^$$' -fuzz '^FuzzTernaryDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/quant
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/checkpoint
	go test -run '^$$' -fuzz '^FuzzReplicaFrame$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/replica

GO ?= go

.PHONY: ci vet lint lint-fixtures build test race serve-smoke fabric-smoke obs-smoke multicore-smoke benchsmoke bench-json bench-gate fuzzsmoke profile

# ci is the gate: vet, the repo's own static analyzer (cmd/smtlint),
# build everything, the full test suite under the race detector
# (internal/sweep's pool tests are the concurrency canary — see
# TestWorkerPoolConcurrency; internal/serve's daemon tests exercise the
# queue/SSE/shutdown paths), the process-level daemon smoke, the fabric
# cluster smoke (coordinator + 2 workers, byte-identical output under
# -race), the observability smoke (a traced fig4 run across a live
# coordinator + 2 workers must produce one complete cross-node trace),
# the multi-core allocation smoke
# (an invariant-checked 2-core smtsim run with migrations enabled), one
# iteration of the cycle-loop benchmarks so a hot-loop
# regression fails loudly, the benchmark-trajectory gate against the
# committed baseline, and a short fuzz smoke over the text-format
# parsers plus an invariant-checked fig9 run.
ci: vet lint lint-fixtures build race serve-smoke fabric-smoke obs-smoke multicore-smoke benchsmoke bench-gate fuzzsmoke

# vet also fails when any tracked .go file is not gofmt-clean.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# lint runs the repo's determinism/concurrency/invariant analyzer over
# every package (see internal/lint and DESIGN.md "Static analysis &
# invariants"). Every run is a full, uncached pass through lint.Drive —
# the same function TestRepoIsClean calls. Any finding fails, including
# a stale //smtlint:ignore directive that suppresses nothing.
lint:
	$(GO) run ./cmd/smtlint ./...

# lint-fixtures runs the analyzer's own test suite: every rule against
# its bad/ok fixture pair, lint.Drive over a small temporary module, and
# TestRepoIsClean (the in-process form of `make lint`). -count=1 so the
# fixtures re-run even when the package is cached.
lint-fixtures:
	$(GO) test -count=1 ./internal/lint/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# serve-smoke builds the real smtserved binary, starts it on a random
# port, drives a job over HTTP, and requires a clean SIGTERM drain —
# the end-to-end check behind the service layer (see DESIGN.md).
# -count=1 forces a live run even when the package is cached.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./cmd/smtserved

# fabric-smoke runs the distributed-sweep fabric suite under the race
# detector: an in-process coordinator plus two workers reproduce
# fig4/fig9/table2 byte-identically to a serial run, including with one
# worker killed and restarted mid-sweep (see internal/fabric and the
# DESIGN.md "Distributed fabric" section). -count=1 forces a live run.
fabric-smoke:
	$(GO) test -race -count=1 ./internal/fabric

# obs-smoke runs the observability end-to-end check under the race
# detector: an in-process coordinator and two traced workers execute a
# traced fig4 sweep; a single trace ID must span submit, dispatch,
# remote compute, and the store reads of OFF-LINE singles (worker
# client span, coordinator server span), every dispatch must name its
# pick, and /debug/traces must show the trace (see
# internal/fabric/obs_test.go and DESIGN.md "Observability").
obs-smoke:
	$(GO) test -race -run TestObsSmoke -count=1 ./internal/fabric

# multicore-smoke runs an invariant-checked 2-core allocation run end
# to end: four applications, the ipc-pred pairing policy, thread
# migrations live, and per-cycle invariant checks on every core. It
# exercises the full -cores path of cmd/smtsim (see DESIGN.md
# "Multi-core & allocation").
multicore-smoke:
	$(GO) run ./cmd/smtsim -check -cores 2 -pairing ipc-pred \
		-workload art,mcf,fma3d,gcc -epochs 12 -epoch-size 8192 -warmup 1 > /dev/null

# benchsmoke runs the machine-speed benchmarks once — not a timing gate,
# just proof they still compile and complete: the single-core cycle loop
# (SimulatorSpeed), the telemetry-on loop, the batch loops, the
# multi-core cycle loop, and the checkpoint copy (Checkpoint).
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorSpeed|BenchmarkMachine|BenchmarkMultiCore|BenchmarkCheckpoint' -benchtime 1x .

# bench-json measures the tracked hot-loop benchmarks (the SimulatorSpeed
# single-core cycle loop, MultiCoreCyclesPerSec, the K=8 MachineBatch
# loop and its sequential baseline, Checkpoint) and writes
# BENCH_PR10.json — the perf trajectory artifact described in DESIGN.md
# "Hot-loop performance".
# Commit the refreshed file when a PR intentionally moves the numbers.
# The -note records the measurement context for this PR's artifact; keep
# it when regenerating on the same class of host, rewrite it otherwise.
BENCH_NOTE = PR10: batch K=8 aggregate is the serial lock-step number; \
profiling shows ~90% of batch time is irreducible per-member pipeline \
work, so the serial gain is bounded by shared decode + locality. \
Checkpoint drift since PR7 (14330 -> ~16900 ns/op) bisects to host \
memory-bandwidth variance, not a code change: the seed commit \
re-measures at 16.3-16.9us on today's host while HEAD measures \
16.0-16.2us on the same runs.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json -note "$(BENCH_NOTE)"

# bench-gate measures the working tree into a scratch file and compares
# it against the committed current artifact: ns/op may regress at most
# 25% (noise allowance), allocs/op may not grow at all (a benchmark with
# no entry in the old baseline is reported, not failed). Gating against
# the committed artifact — not the previous PR's — keeps the comparison
# same-host; cross-PR trajectory lives in the BENCH_PR*.json history.
# A failure means the hot loop got slower or started allocating — see
# DESIGN.md for how to read the numbers.
bench-gate:
	mkdir -p bin
	$(GO) run ./cmd/benchjson -out bin/bench_head.json
	$(GO) run ./cmd/benchjson -gate -old BENCH_PR10.json -new bin/bench_head.json

# fuzzsmoke runs each fuzz target briefly — enough to exercise the seed
# corpora plus a few thousand mutations, not a soak — and finishes with
# an invariant-checked fig9 run: every machine — including every
# MachineBatch member the batched trial loops refill from a checkpoint —
# asserts resource conservation, program-order commit, and
# wakeup/ready-queue consistency each cycle. Checked machines step every
# cycle, so the same run without -check, which skips quiet cycles, must
# print byte-identical output. The same holds for a short STEEP-WIPC
# smtsim run, single-core and on 2 cores, which puts every member of
# its probe batches under the checks.
FUZZ_FIG9 = -epochs 3 -workloads art-mcf,art-gzip,ammp-applu-art-mcf fig9
FUZZ_STEEP = -json -tech STEEP-WIPC -epoch-size 4096 -epochs 3
FUZZ_STEEP2 = $(FUZZ_STEEP) -cores 2 -workload art,mcf,fma3d,gcc
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzParseWorkload -fuzztime 5s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzSpec -fuzztime 5s ./internal/simjob
	$(GO) test -run '^$$' -fuzz FuzzExecKeyDecode -fuzztime 5s ./internal/experiment
	mkdir -p bin
	$(GO) build -o bin/experiments ./cmd/experiments
	./bin/experiments -check $(FUZZ_FIG9) > bin/fig9-check.txt
	./bin/experiments $(FUZZ_FIG9) > bin/fig9-skip.txt
	cmp bin/fig9-check.txt bin/fig9-skip.txt
	$(GO) build -o bin/smtsim ./cmd/smtsim
	./bin/smtsim -check $(FUZZ_STEEP) > bin/steep-check.json
	./bin/smtsim $(FUZZ_STEEP) > bin/steep-skip.json
	cmp bin/steep-check.json bin/steep-skip.json
	./bin/smtsim -check $(FUZZ_STEEP2) > bin/steep2-check.json
	./bin/smtsim $(FUZZ_STEEP2) > bin/steep2-skip.json
	cmp bin/steep2-check.json bin/steep2-skip.json

# profile regenerates fig4 under the CPU profiler and prints the ten
# hottest functions. The profile is left in bin/cpu.pprof for
# `go tool pprof -http` exploration. Override PROFILE_FLAGS (e.g. with
# `PROFILE_FLAGS=` for the full default scale) to change the sample.
PROFILE_FLAGS ?= -epochs 12 -workloads art-mcf,art-gzip,gzip-bzip2
profile:
	mkdir -p bin
	$(GO) build -o bin/experiments ./cmd/experiments
	./bin/experiments $(PROFILE_FLAGS) -cpuprofile bin/cpu.pprof fig4 > /dev/null
	$(GO) tool pprof -top -nodecount=10 bin/experiments bin/cpu.pprof

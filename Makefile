# FBDetect build/verify entry points. `make check` is what CI runs.
GO ?= go
FUZZTIME ?= 10s
# Packages that define Fuzz* targets (go can only fuzz one package at a time).
FUZZ_PKGS = . ./internal/stacktrace ./internal/wal ./internal/pprofparse ./internal/evalharness/replay ./internal/timeseries ./internal/popshift ./internal/controlplane ./internal/stats ./internal/stl

.PHONY: build test test-386 vet race lint examples fuzz-smoke bench-obs bench bench-gate bench-baseline bench-e2e-test bench-e2e eval eval-gate eval-baseline eval-replay eval-replay-baseline crashtest server-smoke profdiff-demo check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite on a 32-bit target, where int is 32 bits wide: a hash
# taken through int goes negative there and nowhere else.
test-386:
	GOARCH=386 $(GO) vet ./... && GOARCH=386 $(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Run every example program to completion (a few seconds in all); a
# failing example fails the target.
EXAMPLES = $(sort $(wildcard examples/*))
examples:
	@for ex in $(EXAMPLES); do \
		echo "== $$ex"; \
		$(GO) run ./$$ex || exit 1; \
	done

# Static analysis. gofmt ships with the toolchain and is always enforced:
# any file it would reformat fails the target. The other tools are not
# vendored; when missing locally they degrade to a notice (CI installs and
# enforces them).
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI installs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI installs it)"; \
	fi

# Run every fuzz target briefly: the seeded corpus plus $(FUZZTIME) of
# randomized exploration each, so parser regressions surface in CI
# without a long dedicated fuzzing run.
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Instrumentation-overhead benchmark (paper §6.6 discipline: the
# detector's own observability must stay under ~5% of scan cost).
bench-obs:
	$(GO) test -run - -bench BenchmarkObsOverhead -benchmem ./internal/core/

# Scan hot-path benchmarks, gated against the committed baseline: more
# than a 20% ns/op regression on any benchmark fails the build.
# BENCH_GATE_FLAGS can relax the threshold (e.g. -threshold 0.5 on noisy
# shared runners). The tsdb append benchmarks join the run so the
# -speedup gate can require the sharded DB to beat a single-lock one by
# 2x under parallel load (only enforced at GOMAXPROCS >= 4; 1-2 core
# machines print a notice instead). Two further in-run gates are
# machine-independent and always enforced: warm checkpointed scans must
# beat the no-checkpoint control by 5x (:any — an algorithmic win, no
# cores needed), the chunked store must hold fleet-shaped data at
# <= 2 bytes/point, and the WAL must log ingest-shaped batches at <= 8.
BENCH_GATE = BenchmarkPipeline$$|BenchmarkScanThroughput$$|BenchmarkScanThroughputNoCheckpoint$$|BenchmarkWarmScanIncremental$$
BENCH_TSDB = BenchmarkAppendParallel$$|BenchmarkAppendParallelSingleLock$$|BenchmarkAppendBatch$$|BenchmarkChunkAppend$$|BenchmarkChunkIterate$$|BenchmarkQueryWindow$$
BENCH_PPROF = BenchmarkPprofParse$$
BENCH_EDIV = BenchmarkEDivisive$$|BenchmarkEDivisiveStreamAppend$$
# The per-series kernels of a sliding sweep: the change-point stage on a
# quiet window, the went-away decision per candidate shape, and the
# statistics and smooths behind went-away and the period search. Each
# package in BENCH_CORE_PKGS gets the whole pattern and runs what it
# defines; these run for the default second each, not -benchtime 5x,
# because five iterations of a 1-3 us decision measure the timer.
BENCH_CORE = BenchmarkCheckWentAway$$|BenchmarkDetectShortTermQuiet180$$|BenchmarkTheilSen240$$|BenchmarkDominantSeasonLag540$$|BenchmarkMannKendall450$$|BenchmarkLoess540$$|BenchmarkDetectPeriod540$$
BENCH_CORE_PKGS = ./internal/core/ ./internal/stats/ ./internal/stl/
# The WAL's append (encode + buffer, reporting segment bytes/point) and
# recovery on an ingest_ndjson-shaped stream; default benchtime, like the
# kernels above, since one append is tens of microseconds.
BENCH_WAL = BenchmarkWALAppend$$|BenchmarkWALRecover$$
bench-gate:
	$(GO) test -run - -bench '$(BENCH_GATE)' -benchmem -benchtime 5x . | tee BENCH_current.txt
	$(GO) test -run - -bench '$(BENCH_TSDB)' -benchmem -benchtime 5x ./internal/tsdb/ | tee -a BENCH_current.txt
	$(GO) test -run - -bench '$(BENCH_PPROF)' -benchmem -benchtime 5x ./internal/pprofparse/ | tee -a BENCH_current.txt
	$(GO) test -run - -bench '$(BENCH_EDIV)' -benchmem -benchtime 5x ./internal/edivisive/ | tee -a BENCH_current.txt
	$(GO) test -run - -bench '$(BENCH_CORE)' -benchmem $(BENCH_CORE_PKGS) | tee -a BENCH_current.txt
	$(GO) test -run - -bench '$(BENCH_WAL)' -benchmem ./internal/wal/ | tee -a BENCH_current.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.txt -current BENCH_current.txt \
		-speedup BenchmarkAppendParallelSingleLock:BenchmarkAppendParallel:2,BenchmarkScanThroughputNoCheckpoint:BenchmarkScanThroughput:5:any \
		-bytes-per-point BenchmarkChunkAppend:2,BenchmarkWALAppend:8 $(BENCH_GATE_FLAGS)

# Re-record the committed baseline (run on the reference machine after an
# intentional performance change, and commit the result).
bench-baseline:
	$(GO) test -run - -bench '$(BENCH_GATE)' -benchmem -benchtime 5x . | tee BENCH_baseline.txt
	$(GO) test -run - -bench '$(BENCH_TSDB)' -benchmem -benchtime 5x ./internal/tsdb/ | tee -a BENCH_baseline.txt
	$(GO) test -run - -bench '$(BENCH_PPROF)' -benchmem -benchtime 5x ./internal/pprofparse/ | tee -a BENCH_baseline.txt
	$(GO) test -run - -bench '$(BENCH_EDIV)' -benchmem -benchtime 5x ./internal/edivisive/ | tee -a BENCH_baseline.txt
	$(GO) test -run - -bench '$(BENCH_CORE)' -benchmem $(BENCH_CORE_PKGS) | tee -a BENCH_baseline.txt
	$(GO) test -run - -bench '$(BENCH_WAL)' -benchmem ./internal/wal/ | tee -a BENCH_baseline.txt

# CI bench job: the overhead microbenchmark, the gated hot-path
# benchmarks, plus the full evaluation report written to BENCH_report.json
# for artifact upload.
bench: bench-obs bench-gate
	$(GO) run ./cmd/benchreport -skip-slow -overhead-ms 500 -json BENCH_report.json

# The end-to-end benchmark (bench/README.md) is a module of its own, so
# `build` and `test` above do not compile it. bench-e2e-test builds it
# against this checkout and runs its tests (~10 s, no binaries spawned for
# long): it is what notices a signature bench/ calls changing under it.
# bench-e2e runs the benchmark itself, e.g.
#   make bench-e2e BENCH_E2E_FLAGS="--workload live_slide --seed 7"
BENCH_E2E_FLAGS ?=
bench-e2e-test:
	cd bench && $(GO) test .

bench-e2e:
	bash bench/run.sh $(BENCH_E2E_FLAGS)

# Ground-truth accuracy harness (see internal/evalharness). `eval` writes
# the full report; `eval-gate` additionally fails when precision, recall,
# suppression, dedup-collapse, or root-cause floors drop below the
# committed EVAL_baseline.json.
EVAL_SEED ?= 1
eval:
	$(GO) run ./cmd/fbdetect-eval -seed $(EVAL_SEED) -out EVAL_report.json

eval-gate:
	$(GO) run ./cmd/fbdetect-eval -seed $(EVAL_SEED) -out EVAL_report.json -baseline EVAL_baseline.json -gate

# Re-derive the committed accuracy floors from a fresh run (after an
# intentional detection-quality change; review and commit the result).
eval-baseline:
	$(GO) run ./cmd/fbdetect-eval -seed $(EVAL_SEED) -write-baseline EVAL_baseline.json -margin 0.1

# CI-regression replay: score the batch detector families (E-divisive,
# CUSUM, DP) against the committed Mozilla-format sample with its
# sheriff-labeled alerts, write REPLAY_report.json, and fail when any
# per-family floor in REPLAY_baseline.json is violated.
REPLAY_DATA ?= internal/evalharness/replay/testdata/mozsample
eval-replay:
	$(GO) run ./cmd/fbdetect ci -data $(REPLAY_DATA) -report REPLAY_report.json \
		-baseline REPLAY_baseline.json -gate

# Re-derive the committed replay floors (after an intentional batch
# detector change; review and commit the result).
eval-replay-baseline:
	$(GO) run ./cmd/fbdetect ci -data $(REPLAY_DATA) -write-baseline REPLAY_baseline.json -margin 0.05

# Crash-recovery drill with the real binaries: SIGKILL a durable worker
# mid-ingest, restart it, and require its recovered /scan response to be
# byte-identical to an uninterrupted control worker's.
crashtest:
	bash scripts/crashtest.sh

# Control-plane smoke drill with the real fbdetect-server binary: tenant
# registration, auth rejection, per-tenant isolation, an async backfill
# SIGKILLed mid-job and recovered from its journal, and rate-limit
# isolation between tenants. Set SMOKE_LOG_DIR to keep the server logs.
server-smoke:
	bash scripts/server_smoke.sh

# Real-profile demo: profile an actual Go workload before and after an
# injected slowdown, then require `fbdetect profdiff` to rank the slowed
# function first.
profdiff-demo:
	bash scripts/profdiff_demo.sh

check: build vet lint test race examples bench-e2e-test

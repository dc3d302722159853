# CI and local development invoke identical commands: .github/workflows/ci.yml
# runs exactly these targets.

GO ?= go

.PHONY: all build vet fmt-check lint-docs test race bench-quick bench-packs \
	bench-shard bench-merge bench-sharded bench-alloc bench-hot profile \
	hspd-smoke fuzz-smoke bench-check ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every package (internal/* and cmd/*) must carry a package-level doc
# comment ("// Package ..." / "// Command ..."), and internal/expt must
# keep its doc.go (the registry/runner/pack lifecycle reference).
lint-docs: vet
	@fail=0; for d in internal/*/ cmd/*/; do \
		if ! grep -qE '^// (Package|Command) ' $$d*.go; then \
			echo "missing package-level doc comment in $$d"; fail=1; fi; \
	done; \
	if [ ! -f internal/expt/doc.go ]; then \
		echo "internal/expt/doc.go missing"; fail=1; fi; \
	exit $$fail

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The reproduction gate: the quick paper suite on the parallel runner,
# stable JSON records, nonzero exit on any claim-check failure, and a
# drift-checked record appended to the BENCH_hbench.json trajectory.
bench-quick:
	$(GO) run ./cmd/hbench -quick -parallel -json -bench-out BENCH_hbench.json

# The workload packs on a small budget, so every push exercises them.
bench-packs:
	$(GO) run ./cmd/hbench -quick -parallel -pack rt -json -bench-out BENCH_hbench.json
	$(GO) run ./cmd/hbench -quick -parallel -pack memcap -json -bench-out BENCH_hbench.json
	$(GO) run ./cmd/hbench -quick -parallel -pack dag -json -bench-out BENCH_hbench.json

# Sharded suite execution. Each shard process derives the same
# deterministic plan — cost-balanced (LPT) from the committed trajectory
# when a record matches the run key, round-robin otherwise — and runs
# only its subset; -bench-out here is the read-only cost source, never
# appended to. bench-merge validates the shards form one complete
# disjoint run and asserts the merged JSONL is byte-identical to the
# sequential run. CI runs bench-shard in a 3-way matrix and bench-merge
# in the follow-up job; bench-sharded is the same flow in one process
# for local use.
SHARDS ?= 3
SHARD_OUT ?= out/shards

bench-shard:
	@mkdir -p $(SHARD_OUT)
	$(GO) run ./cmd/hbench -quick -parallel -bench-out BENCH_hbench.json \
		-shard $(SHARD)/$(SHARDS) > $(SHARD_OUT)/shard$(SHARD).jsonl

bench-merge:
	$(GO) run ./cmd/hbench -quick -parallel -json > $(SHARD_OUT)/sequential.jsonl
	$(GO) run ./cmd/hbench -merge $(SHARD_OUT)/merged.jsonl $(SHARD_OUT)/shard*.jsonl
	cmp $(SHARD_OUT)/sequential.jsonl $(SHARD_OUT)/merged.jsonl

bench-sharded:
	@rm -rf $(SHARD_OUT)
	@for i in $$(seq 1 $(SHARDS)); do \
		$(MAKE) bench-shard SHARD=$$i SHARDS=$(SHARDS) || exit 1; done
	$(MAKE) bench-merge SHARDS=$(SHARDS)

# Allocation budgets (see PERFORMANCE.md): the alloc-budget tests pin the
# LP pivot loop, the exact branch-and-bound DFS and the Problem
# rebuild path at zero steady-state allocations, and a warmed SolveWS at
# its contract minimum. Run WITHOUT -race: race instrumentation
# allocates, so these tests skip themselves under it — this target is the
# gate CI relies on.
bench-alloc:
	$(GO) test -count=1 -run 'AllocFree|SteadyStateAllocs' ./internal/lp ./internal/exact

# The hot-path benchmarks with allocation counts: the LP oracle per
# solve, the Section V binary search, and one exact branch-and-bound
# probe. Compare against the table in PERFORMANCE.md.
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkSolve$$|BenchmarkSolveWS$$' -benchmem ./internal/lp
	$(GO) test -run '^$$' -bench 'BenchmarkMinFeasibleT$$' -benchmem ./internal/relax
	$(GO) test -run '^$$' -bench 'BenchmarkFeasibleAssignment$$' -benchmem ./internal/exact

# Daemon smoke: build hspd, drive it with the synthetic-traffic harness
# for a few seconds, and fail on zero successful answers, any outright
# failure, or any paper-guarantee claim violation in the responses
# (hspd -loadtest exits nonzero on all three). The latency summary lands
# in $(SMOKE_OUT) for the CI artifact upload, and the run appends a
# drift-checked record to the BENCH_hspd.json trajectory — the gate only
# trips on catastrophic regressions (factor HSPD_DRIFT_FAIL) because CI
# machine speed varies run to run.
SMOKE_OUT ?= out/hspd
SMOKE_DURATION ?= 3s
HSPD_DRIFT_FAIL ?= 25

# The second run repeats the traffic with the content-addressed cache
# enabled: the loadtest itself fails on a zero hit ratio (repeat-heavy
# probes against an in-process cache must hit), and its summary lands
# next to the uncached one in the artifact. The cached run appends under
# its own trajectory key (…|cache=512), so the two latency profiles are
# tracked separately.
hspd-smoke:
	@mkdir -p $(SMOKE_OUT)
	$(GO) build -o $(SMOKE_OUT)/hspd ./cmd/hspd
	$(SMOKE_OUT)/hspd -loadtest -duration $(SMOKE_DURATION) -concurrency 8 \
		-summary $(SMOKE_OUT)/latency.json \
		-bench-out BENCH_hspd.json -drift-fail $(HSPD_DRIFT_FAIL)
	$(SMOKE_OUT)/hspd -loadtest -duration $(SMOKE_DURATION) -concurrency 8 \
		-cache-entries 512 \
		-summary $(SMOKE_OUT)/latency-cached.json \
		-bench-out BENCH_hspd.json -drift-fail $(HSPD_DRIFT_FAIL)

# Coverage-guided fuzzing smoke: a short budget per target on every CI
# run (regression corpus under testdata/fuzz always runs with plain
# `go test`; this adds fresh exploration). The properties fuzzed are the
# warm-start safety contract: warm/cold verdict+objective agreement and
# feasibility on arbitrary LPs, and warm/cold T* equality plus verdict
# monotonicity around T* for the relaxation's binary search — plus the
# DAG-task wire format (decode/validate/canonical re-encode stability and
# the compile certificate on every accepted input) — plus the solve
# cache's content address (canonical request encodings are injective and
# agree with cache-key equality on arbitrary request pairs) — plus the
# untrusted instance decoders: the wire-format instance decoder (no
# crash; accepted instances validate and round-trip) and the laminar
# family constructor (no crash; accepted families keep their forest
# invariants). Targets run one at a time — go test allows a single
# -fuzz pattern per package.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzLPSolve' -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz 'FuzzLPWarmObjective' -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz 'FuzzMinFeasibleT' -fuzztime $(FUZZTIME) ./internal/relax
	$(GO) test -run '^$$' -fuzz 'FuzzDAGDecode' -fuzztime $(FUZZTIME) ./internal/dag
	$(GO) test -run '^$$' -fuzz 'FuzzCacheKey' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzDecode' -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run '^$$' -fuzz 'FuzzNew' -fuzztime $(FUZZTIME) ./internal/laminar

# The repository benchmark (BENCHMARK.json) is a Go module of its own in
# hspbench/, which the root `go test ./...` does not enter: vet it and
# run its tests (-short skips the smoke run) so a solver API change that
# breaks the benchmark fails here.
bench-check:
	cd hspbench && $(GO) vet . && $(GO) test -short .

# Profiling harness (playbook: PERFORMANCE.md): a representative suite
# run — the quick paper pack on the parallel runner — with pprof CPU and
# heap profiles. Inspect with e.g.
#   go tool pprof -top   $(PROFILE_OUT)/cpu.pprof
#   go tool pprof -top -sample_index=alloc_objects $(PROFILE_OUT)/heap.pprof
PROFILE_OUT ?= out/profile

profile:
	@mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/hbench -quick -parallel -json \
		-cpuprofile $(PROFILE_OUT)/cpu.pprof -memprofile $(PROFILE_OUT)/heap.pprof \
		> $(PROFILE_OUT)/run.jsonl
	@echo "profiles written: $(PROFILE_OUT)/cpu.pprof $(PROFILE_OUT)/heap.pprof"

ci: build vet fmt-check lint-docs race bench-alloc bench-check fuzz-smoke bench-quick bench-packs hspd-smoke

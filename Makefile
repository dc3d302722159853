# CI and local development invoke identical commands: .github/workflows/ci.yml
# runs exactly these targets.

GO ?= go

.PHONY: all build vet fmt-check lint-docs test race bench-quick bench-packs \
	bench-full bench-alloc bench-hot profile pivot-addr hspd-smoke fuzz-smoke bench-check ci

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

# The full suite of every registered pack in one process, each
# experiment under a deadline, so a runaway solve fails instead of
# hanging; appends a drift-checked record to the trajectory.
bench-full:
	$(GO) run ./cmd/hbench -pack all -parallel -json -timeout 2m -bench-out BENCH_hbench.json

# Allocation budgets (see PERFORMANCE.md): the alloc-budget tests pin the
# LP pivot loop, the exact branch-and-bound DFS and a whole exact
# feasibility probe on a reused workspace, the Problem rebuild
# path, a warm Verdict re-entry, the (IP-3) builder's probe rebuild in
# internal/relax (the plain relaxation and both of memcap's memory row
# sets) and whole relax.Workspace.Verdict probes on both memory row
# sets at zero steady-state allocations, and a cold re-solve on a grown
# workspace at its contract minimum (the Solution and its X). Run WITHOUT -race: race instrumentation allocates, so these
# tests skip themselves under it — this target is the gate CI relies on.
bench-alloc:
	$(GO) test -count=1 -run 'AllocFree|SteadyStateAllocs' ./internal/lp ./internal/exact ./internal/relax

# The hot-path benchmarks with allocation counts: the LP oracle per
# solve, the Section V binary search (fresh, and on a reused workspace
# whose pivots/op is the search's effort ledger), one exact
# branch-and-bound probe, one E15 probe that exhausts its 200,000-node
# cap (nodes/op, ns/node), an rt admission sweep (four fresh tests vs one
# Tester), memcap's Model 1 and Model 2 solves (fresh vs warmed
# workspace), and one cache hit through the daemon's HTTP handler. Compare against the tables in
# PERFORMANCE.md.
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkSolve$$|BenchmarkSolveWS$$' -benchmem ./internal/lp
	$(GO) test -run '^$$' -bench 'BenchmarkMinFeasibleT$$|BenchmarkMinFeasibleTWarm$$' -benchmem ./internal/relax
	$(GO) test -run '^$$' -bench 'BenchmarkFeasibleAssignment$$|BenchmarkFeasibleAssignmentCapped$$' -benchmem ./internal/exact
	$(GO) test -run '^$$' -bench 'BenchmarkSweep$$' -benchmem ./internal/rt
	$(GO) test -run '^$$' -bench 'BenchmarkSolveModel[12]$$' -benchmem ./internal/memcap
	$(GO) test -run '^$$' -bench 'BenchmarkCacheHit$$' -benchmem ./internal/serve

# Daemon smoke: the repository benchmark's two serving workloads
# (hspbench, BENCHMARK.json) for 3 seconds each against an in-process
# daemon. serve-cold sends distinct requests with the cache off;
# serve-zipf sends Zipf-skewed repeats through a 512-entry cache.
# hspbench checks every answer against its paper certificate. The
# target fails unless each result line has "correct":true and
# "failed":0, and unless serve-zipf's facts line has a nonzero cache
# hit ratio. Each run's facts and result lines land in
# $(SMOKE_OUT)/<workload>.jsonl for the CI artifact, and one record per
# workload, {time, key, facts, result}, is appended to the
# BENCH_hspd.json trajectory, keyed by workload, seed, GOMAXPROCS and
# Go version.
SMOKE_OUT ?= out/hspd

hspd-smoke:
	@mkdir -p $(SMOKE_OUT)
	@set -e; for w in serve-cold serve-zipf; do \
		out=$(SMOKE_OUT)/$$w.jsonl; \
		bash hspbench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 > $$out; \
		cat $$out; \
		jq -se 'length == 2 and .[1].correct == true and .[1].failed == 0 and (.[0].workload != "serve-zipf" or .[0].hit_ratio > 0)' $$out > /dev/null \
			|| { echo "hspd-smoke: $$w failed its gate" >&2; exit 1; }; \
		jq -sc '{time: (now | todate), key: "hspbench|\(.[0].workload)|seed=\(.[0].seed)|gomaxprocs=\(.[0].machine.gomaxprocs)|\(.[0].machine.go)", facts: .[0], result: .[1]}' $$out >> BENCH_hspd.json; \
	done

# Coverage-guided fuzzing smoke: a short budget per target on every CI
# run (regression corpus under testdata/fuzz always runs with plain
# `go test`; this adds fresh exploration). The properties fuzzed are the
# warm-start safety contract: warm Verdict against cold Solve agreement
# and a feasible cold vertex on arbitrary LPs, and warm/cold T* equality
# plus verdict monotonicity around T* for the relaxation's binary
# search, plus Lemma
# V.1 on the same instances (the singleton-extended T* equals the T* of
# the unrelated projection, up to one at an LP-tolerance tie that
# TwoApprox must then absorb with its bound at the larger T*, and
# TwoApprox and LST round the projection within 2·T*) — plus the
# DAG-task wire format (decode/validate/canonical re-encode stability and
# the compile certificate on every accepted input) — plus the solve
# cache's content address (canonical request encodings are injective and
# agree with cache-key equality on arbitrary request pairs) — plus the
# untrusted instance decoders: the wire-format instance decoder (no
# crash; accepted instances validate and round-trip) and the laminar
# family constructor (no crash; accepted families keep their forest
# invariants) — plus the rt Tester's memo (every answer of one Tester
# over any frame sequence equals a fresh Tester's) — plus memcap's
# workspace reuse (every Model 1/2 answer on a workspace shared with
# other solves equals a fresh workspace's) — plus the exact
# branch-and-bound kernel (on arbitrary small instances, makespans and
# node caps, the slack-step DFS walks the reference chain-walk kernel's
# tree: same verdict, witness, node counts and cap error). Targets run
# one at a time — go test allows a single -fuzz pattern per package.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzLPSolve' -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz 'FuzzLPWarmOscillate' -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz 'FuzzMinFeasibleT' -fuzztime $(FUZZTIME) ./internal/relax
	$(GO) test -run '^$$' -fuzz 'FuzzDAGDecode' -fuzztime $(FUZZTIME) ./internal/dag
	$(GO) test -run '^$$' -fuzz 'FuzzCacheKey' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzDecode' -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run '^$$' -fuzz 'FuzzNew' -fuzztime $(FUZZTIME) ./internal/laminar
	$(GO) test -run '^$$' -fuzz 'FuzzTesterMatchesTest' -fuzztime $(FUZZTIME) ./internal/rt
	$(GO) test -run '^$$' -fuzz 'FuzzMemcapWorkspace' -fuzztime $(FUZZTIME) ./internal/memcap
	$(GO) test -run '^$$' -fuzz 'FuzzExactKernel' -fuzztime $(FUZZTIME) ./internal/exact

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

# End-to-end timings on one host can follow lp.(*tableau).pivot's
# address modulo 64 as well as the work done (see CHANGES.md). This
# builds the benchmark binary as hspbench/run.sh does, into out/, and
# prints that address and its value mod 64; compare it before and after
# a change to read the change's timings.
pivot-addr:
	@mkdir -p out
	cd hspbench && GOFLAGS= GOWORK=off $(GO) build -o ../out/hspbench .
	@addr=$$($(GO) tool nm out/hspbench | awk '$$3 == "hsp/internal/lp.(*tableau).pivot" { print $$1 }'); \
		test -n "$$addr" || { echo "pivot-addr: lp.(*tableau).pivot not found" >&2; exit 1; }; \
		echo "lp.(*tableau).pivot 0x$$addr mod 64 = $$(( 0x$$addr % 64 ))"

ci: build vet fmt-check lint-docs race bench-alloc bench-check fuzz-smoke bench-quick bench-packs bench-full hspd-smoke

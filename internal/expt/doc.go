// Package expt is the experiment engine: the registry of experiments and
// packs, the streaming cancelable runner, and the E1–E15 reproduction
// suite of the paper's claims (see EXPERIMENTS.md for the mapping), plus
// the rt and memcap workload packs that open the engine beyond the paper.
//
// # Lifecycle
//
// Registration. An experiment is a descriptor — Experiment{ID, Title,
// Claim, Pack, Run} — registered from an init function (Register,
// registry.go). The registry is the single source of truth for titles
// and claims: newTable pulls the title from it, cmd/hbench lists from
// it, and the suite order ("E<n>" numerically, then other ids
// lexicographically) is derived from it. Packs are named groups of
// experiments (Pack, pack.go): a descriptor registered with RegisterPack
// documents the group, and each Experiment names its pack in its Pack
// field (empty = the paper pack). PackIDs resolves a pack to its
// experiment ids in suite order.
//
// Execution. Runner (runner.go) executes any subset on a bounded worker
// pool (parallel.go), and each experiment runs on the worker goroutine
// that picked it up. Every experiment runs with a seed derived
// deterministically from the base seed and its ID (DeriveSeed), so
// results are independent of worker count and completion order. The
// trial sweeps whose trials are independent (E9, E10, E13, E14, E15)
// also spread them over the cores, in three steps: they draw every
// trial's seed or instance on the experiment goroutine in rng order,
// solve the trials concurrently through mapTrials on the same bounded
// pool, each trial on a fresh workspace, and fold the outputs in trial
// order. Their tables, checks and float sums are therefore the same at
// any GOMAXPROCS and any Runner.Workers. E10's unit is one overhead row,
// whose regimes stay sequential; E12 stays sequential because its time
// column is wall clock. Each Run receives a context it must honor: the
// solver hot loops underneath (LP simplex pivots in internal/lp, the
// branch-and-bound DFS in internal/exact) poll the context, and the
// sweeps check it between trials (mapTrials skips the trials not yet
// started), so a per-experiment Timeout (StatusTimeout) or a canceled
// suite context (StatusCanceled) aborts the work itself. The runner
// waits for the experiment to return, and the experiment for its
// trials, so no goroutine is ever abandoned.
//
// Results. Each run yields one Result (result.go): id, status
// (pass|fail|error|timeout|canceled), seed, claim checks and the table.
// Runner.Sink streams each Result the moment its experiment finishes;
// MarshalResult/WriteJSON serialize records whose default form is
// byte-stable for a given seed — volatile fields are zeroed, so
// sequential, parallel and streamed runs of the same seed differ at most
// in line order. cmd/hbench drives all of this; bench_test.go wraps each
// experiment in a testing.B benchmark.
package expt

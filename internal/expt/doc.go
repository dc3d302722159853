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
// pool (parallel.go); each experiment runs its trials in order on the
// worker goroutine that picked it up. Every experiment runs with a seed
// derived deterministically from the base seed and its ID (DeriveSeed),
// so results are independent of worker count and completion order. Each Run receives a context it must honor:
// the solver hot loops underneath (LP simplex pivots in internal/lp, the
// branch-and-bound DFS in internal/exact) poll the context, and the
// sweep loops inside each experiment check it between trials, so a
// per-experiment Timeout (StatusTimeout) or a canceled suite context
// (StatusCanceled) aborts the work itself — the runner waits for the
// experiment to return and never abandons a goroutine.
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

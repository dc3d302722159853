// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	min c·x   subject to   A x {≤,=,≥} b,  x ≥ 0.
//
// It is the LP oracle behind the paper's Section V rounding (binary search
// over the makespan T on the fractional relaxation of IP-3), the
// Lenstra–Shmoys–Tardos rounding for unrelated machines, and the iterative
// rounding of Section VI. The solver returns basic feasible solutions, i.e.
// vertices of the feasible polyhedron, which those roundings require.
//
// The implementation favors robustness over speed: rows are equilibrated at
// build time, Dantzig pricing switches to Bland's rule after a run of
// degenerate pivots (guaranteeing termination), and an iteration cap turns
// pathological cases into errors instead of hangs. Solve additionally
// polls a context between pivots, so callers higher up the stack (the
// Section V binary search, the Section VI iterative rounding) can abort a
// solve cooperatively — the cancellation path -timeout in cmd/hbench
// relies on. The poll sits at the top of the pivot loop, outside the
// per-pivot arithmetic: one Err() call per O(rows·cols) pivot, never one
// per tableau element.
//
// # Workspace reuse
//
// Every solve runs on a Workspace holding the dense tableau and both
// reduced-cost rows as flat, grow-only arrays:
//
//   - Solve and Feasible with a nil Workspace draw one from an internal
//     sync.Pool, so even one-shot callers amortize tableau allocations
//     process-wide. Pool-backed solves never warm start.
//   - Solve and Feasible with a caller-held Workspace reuse it. The binary
//     searches in internal/relax, internal/unrelated and internal/memcap
//     hold one Workspace across all their probes, making every re-solve
//     after the first allocate nothing but the returned Solution.
//
// A Workspace is owned by exactly one solve at a time and is not
// goroutine-safe; concurrent solvers use one Workspace each. Solutions
// never alias the Workspace (Solution.X is freshly allocated), so results
// survive re-solves. Problem construction follows the same discipline:
// constraints live in two flat arenas inside the Problem, and
// Problem.Reset re-dimensions a Problem in place so near-identical
// problems can be rebuilt without reallocating. See PERFORMANCE.md for
// the measured effect and the profiling playbook.
package lp

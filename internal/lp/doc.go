// Package lp implements a dense phase-1 simplex solver for feasibility
// linear programs
//
//	find x ≥ 0   subject to   A x {≤,=,≥} b,
//
// returning a vertex of the feasible polyhedron or reporting that there
// is none. There is no objective: every LP this reproduction solves is a
// feasibility LP. It is the LP oracle behind the paper's Section V
// rounding (binary search over the makespan T on the fractional
// relaxation of IP-3, and the vertex at T* that the
// Lenstra–Shmoys–Tardos rounding for unrelated machines consumes) and
// the residual LPs of Section VI's iterative rounding. The solver
// returns basic feasible solutions, i.e. vertices, which those roundings
// require.
//
// The implementation favors robustness over speed: rows are equilibrated at
// build time, Dantzig pricing switches to Bland's rule after a run of
// degenerate pivots (guaranteeing termination), and an iteration cap turns
// pathological cases into errors instead of hangs. Both solves poll a
// context between pivots, so callers higher up the stack (the
// Section V binary search, the Section VI iterative rounding) can abort a
// solve cooperatively — the cancellation path -timeout in cmd/hbench
// relies on. The poll sits at the top of the pivot loop, outside the
// per-pivot arithmetic: one Err() call per O(rows·cols) pivot, never one
// per tableau element.
//
// # The row update
//
// Nearly all of a pivot's time is one loop, row[j] -= f·prow[j], run for
// every row it updates and for the cost row. That loop is subScaled. On
// amd64 with AVX2 (checked once at package init with CPUID and XGETBV) it
// is assembly that works on four lanes at a time: VMULPD rounds each
// product, then VSUBPD subtracts it. That is the same IEEE
// multiply-then-subtract, under the same MXCSR rounding, as the scalar
// MULSD/SUBSD the Go loop compiles to, and it never uses a fused
// multiply-add, so every tableau holds the same bits either way.
// Elsewhere subScaled is the Go loop, written with an explicit float64
// conversion of the product so that no compiler (arm64's would) fuses
// the two operations: every platform computes the same tableaux.
//
// # Verdict-only solves
//
// Verdict answers feasibility alone, for the binary searches' probes
// (Section V's T* and Section VI's T_LP). It pivots without round-off
// work: pivoting leaves residue of 1e-12 or less where exact arithmetic
// leaves zeros, and a row whose entering-column entry is such residue
// would be updated for nothing. A Verdict counts an entry below 1e-11 as
// zero, stores 0 there and skips the row. Solve keeps the exact-zero
// test. Counters.RowUpdates counts the rows pivots update, the pivot
// loop's unit of work.
//
// Verdict is also the only solve that warm-starts: on a caller-held
// Workspace it re-enters the basis of the last feasible cold solve with
// dual-simplex pivots (see warm.go). Solve is always cold, so the
// vertices the roundings consume never depend on the drop, on a
// retained basis, or on what the Workspace solved before.
//
// # Workspace reuse
//
// Every solve runs on a Workspace holding the dense tableau and its
// phase-1 reduced-cost row as flat, grow-only arrays:
//
//   - Solve and Verdict with a nil Workspace allocate a private one for
//     that solve alone, as every other solver's nil does.
//   - Solve and Verdict with a caller-held Workspace reuse it. The
//     binary searches in internal/relax and internal/memcap hold one
//     Workspace across all their probes, so every Verdict after the
//     first allocates nothing, and a Solve allocates only the returned
//     Solution.
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

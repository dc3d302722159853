package lp

// Workspace holds the simplex solver's working state — the dense tableau
// and its phase-1 reduced-cost row — so repeated solves reuse one set of
// backing arrays instead of allocating a fresh tableau per solve.
//
// Ownership contract: a Workspace is owned by exactly one solve at a time.
// It is NOT goroutine-safe; callers that solve concurrently must use one
// Workspace per goroutine (or pass a nil Workspace, which allocates a
// private one for that solve alone, as every other solver's nil does).
// The buffers grow monotonically to the largest problem seen and are
// retained, which is exactly what the binary searches in internal/relax
// and internal/memcap want: they re-solve near-identical LPs, so after
// the first probe a Verdict allocates nothing and a Solve nothing but
// the returned Solution.
//
// The returned Solution never aliases the Workspace: Solution.X is freshly
// allocated per solve, so callers may keep results across re-solves.
//
// Beyond buffer reuse, a caller-held Workspace retains the basis of its
// last feasible cold solve, and the next Verdict warm-starts from it when
// only constraint right-hand sides changed or keyed variables were
// pruned — see the warm-start contract in warm.go. Solve never
// warm-starts.
type Workspace struct {
	t        tableau
	warm     warmState
	counters Counters
}

// NewWorkspace returns an empty Workspace ready for Solve and Verdict.
// The zero value is also valid.
func NewWorkspace() *Workspace { return &Workspace{} }

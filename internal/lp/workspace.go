package lp

import "sync"

// Workspace holds the simplex solver's working state — the dense tableau
// and both reduced-cost rows — so repeated solves reuse one set of backing
// arrays instead of allocating a fresh tableau per solve.
//
// Ownership contract: a Workspace is owned by exactly one solve at a time.
// It is NOT goroutine-safe; callers that solve concurrently must use one
// Workspace per goroutine (or pass a nil Workspace, which draws one from
// an internal sync.Pool). The buffers grow monotonically to the largest
// problem seen and are retained, which is exactly what the binary
// searches in internal/relax, internal/unrelated and internal/memcap
// want: they re-solve near-identical LPs, so after the first probe the
// solver allocates nothing but the returned Solution.
//
// The returned Solution never aliases the Workspace: Solution.X is freshly
// allocated per solve, so callers may keep results across re-solves.
//
// Beyond buffer reuse, a caller-held Workspace retains the optimal basis
// of its last solve and warm-starts the next one when only constraint
// right-hand sides changed — see the warm-start contract in warm.go.
// InvalidateWarmStart forces the next solve cold; SetWarmStart(false)
// forces every solve cold.
type Workspace struct {
	t        tableau
	warm     warmState
	warmOff  bool
	counters Counters
}

// NewWorkspace returns an empty Workspace ready for Solve/Feasible.
// The zero value is also valid.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool backs nil-workspace solves so one-shot callers still amortize tableau
// allocations across solves process-wide.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

package exact

import (
	"context"
	"fmt"
	"sort"

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/scratch"
)

// Options bounds the search.
type Options struct {
	// MaxNodes caps the number of DFS nodes per feasibility probe;
	// 0 means the default of 5e6.
	MaxNodes int
}

func (o Options) maxNodes() int {
	if o.MaxNodes <= 0 {
		return 5_000_000
	}
	return o.MaxNodes
}

// Workspace holds the branch-and-bound working state: candidate lists,
// the in-place assignment vector, per-subtree volume accumulators and the
// precomputed ancestor-membership table. A Workspace is reused across the
// feasibility probes of one binary search (and across searches), so a
// steady-state probe allocates nothing in the DFS itself — every node
// commits and undoes in place. See the package doc for the ownership
// contract.
type Workspace struct {
	// Family-derived: rebuilt only when the family changes.
	family *laminar.Family
	nsets  int
	inSub  []bool // inSub[c*nsets+anc] reports anc ∈ Chain(c), i.e. anc ⊇ c

	// Probe state, sized to the instance and reused across probes.
	in        *model.Instance
	T         int64
	ctx       context.Context
	n         int
	nodes     int
	limit     int
	cands     [][]int // per job: candidate sets under (2c), cheapest first
	candArena []int   // flat backing for cands rows
	ceiling   []int   // minimal subtree the job is forced into (-1: none)
	minP      []int64 // cheapest admissible processing time per job
	forcedMin []int64 // lower bound on future volume per subtree
	capOf     []int64 // |s|·T per subtree
	used      []int64 // committed volume per subtree
	order     []int   // most-constrained-first job order
	assign    model.Assignment
	ancCount  []int32 // scratch for commonAncestor

	// Twin-pair symmetry state (see prepare): pairWith[k] = k-1 marks a
	// position whose job is identical to the one right before it in the
	// DFS order; the pair's branches are explored only in nondecreasing
	// candidate-index order, and mirror[k] records explored branch sizes
	// so the skipped ones are counted without being visited.
	pairWith    []int   // per order position: k-1 when paired with it, else -1
	chosenCi    []int   // per order position: candidate index committed there
	mirror      [][]int // per pair-second position: ncands×ncands branch node counts
	mirrorArena []int   // flat backing for mirror tables
	visited     int     // nodes actually expanded (w.nodes counts the canonical tree)

	// relaxWS seeds Solve's binary-search lower bound; holding it here
	// lets the LP probes of consecutive Solve calls warm-start.
	relaxWS *relax.Workspace

	// Lifetime counters, reset with ResetStats.
	statProbes    int
	statVisited   int
	statCanonical int
}

// Stats aggregates search effort across the workspace's lifetime.
type Stats struct {
	Probes    int         // DFS feasibility probes
	Visited   int         // DFS nodes actually expanded
	Canonical int         // nodes of the canonical (unpruned) tree — the node-cap currency
	Relax     relax.Stats // LP effort of the lower-bound searches seeding Solve
}

// Stats snapshots the workspace counters.
func (w *Workspace) Stats() Stats {
	s := Stats{Probes: w.statProbes, Visited: w.statVisited, Canonical: w.statCanonical}
	if w.relaxWS != nil {
		s.Relax = w.relaxWS.Stats()
	}
	return s
}

// ResetStats zeroes the workspace counters.
func (w *Workspace) ResetStats() {
	w.statProbes, w.statVisited, w.statCanonical = 0, 0, 0
	if w.relaxWS != nil {
		w.relaxWS.ResetStats()
	}
}

// NewWorkspace returns an empty Workspace. The zero value is also valid.
func NewWorkspace() *Workspace { return &Workspace{} }

// Solve returns an optimal assignment and the optimal makespan. The LP
// seeding, the binary search and the branch-and-bound all poll ctx, so a
// canceled caller abandons the search within a few thousand DFS nodes
// (the error wraps ctx.Err()). The caller-held Workspace is reused across
// the binary search's feasibility probes (nil allocates one internally).
func Solve(ctx context.Context, in *model.Instance, opts Options, ws *Workspace) (model.Assignment, int64, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	// The LP lower bound reuses a workspace held by this exact workspace,
	// so the probes of its binary search warm-start — and so do the
	// searches of later Solve calls on the same workspace. T* is the
	// same as a cold search's: warm start changes how fast probes answer,
	// never what they answer.
	if ws.relaxWS == nil {
		ws.relaxWS = relax.NewWorkspace()
	}
	lo, err := relax.MinFeasibleT(ctx, in, ws.relaxWS)
	if err != nil {
		return nil, 0, fmt.Errorf("exact: %w", err)
	}
	hi := in.TrivialUpperBound()
	if hi < lo {
		hi = lo
	}
	var best model.Assignment
	for lo < hi {
		mid := lo + (hi-lo)/2
		a, ok, err := FeasibleAssignment(ctx, in, mid, opts, ws)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			hi, best = mid, a
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		a, ok, err := FeasibleAssignment(ctx, in, lo, opts, ws)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("exact: infeasible at upper bound T=%d", lo)
		}
		best = a
	}
	return best, lo, nil
}

// FeasibleAssignment searches for an assignment satisfying (2a)-(2c) at
// makespan T. The boolean reports success; an error reports only node-cap
// exhaustion or cancellation: the DFS polls ctx every few thousand nodes
// and unwinds with an error wrapping ctx.Err() once it is done. The
// caller-held Workspace is reused (nil allocates one internally); on
// success the returned assignment is a fresh copy — it survives
// workspace reuse.
func FeasibleAssignment(ctx context.Context, in *model.Instance, T int64, opts Options, ws *Workspace) (model.Assignment, bool, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	// Don't retain the run's context (deadline timers, cancel chains) or
	// instance in a caller-held workspace past the probe.
	defer func() { ws.ctx, ws.in = nil, nil }()
	if !ws.prepare(ctx, in, T, opts) {
		ws.statProbes++
		return nil, false, nil
	}
	ok, err := ws.search()
	ws.statProbes++
	ws.statVisited += ws.visited
	ws.statCanonical += ws.nodes
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	out := make(model.Assignment, ws.n)
	copy(out, ws.assign)
	return out, true, nil
}

// prepare sizes the workspace for (in, T) and builds the probe state:
// candidate sets per job under the (2c) pruning (cheapest first), the
// subtree ceilings and forced-volume lower bounds, capacities, and the
// most-constrained-first job order. It reports false when some job has no
// candidate at all — the probe is trivially infeasible.
func (w *Workspace) prepare(ctx context.Context, in *model.Instance, T int64, opts Options) bool {
	f := in.Family
	n := in.N()
	nsets := f.Len()
	w.in, w.T, w.ctx = in, T, ctx
	w.n = n
	w.limit = opts.maxNodes()

	if w.family != f {
		// Ancestor-membership table: one bool lookup replaces a chain walk
		// in the innermost DFS pruning test.
		w.family = f
		w.nsets = nsets
		w.inSub = scratch.Grow(w.inSub, nsets*nsets)
		scratch.Clear(w.inSub)
		for c := 0; c < nsets; c++ {
			for _, anc := range f.Chain(c) {
				w.inSub[c*nsets+anc] = true
			}
		}
	}

	w.cands = scratch.Grow(w.cands, n)
	w.candArena = scratch.Grow(w.candArena, n*nsets)
	w.ceiling = scratch.Grow(w.ceiling, n)
	w.minP = scratch.Grow(w.minP, n)
	w.forcedMin = scratch.Grow(w.forcedMin, nsets)
	scratch.Clear(w.forcedMin)
	w.capOf = scratch.Grow(w.capOf, nsets)
	w.used = scratch.Grow(w.used, nsets)
	scratch.Clear(w.used)
	w.order = scratch.Grow(w.order, n)
	w.assign = scratch.Grow(w.assign, n)
	w.ancCount = scratch.Grow(w.ancCount, nsets)

	// Candidate sets per job under the (2c) pruning, cheapest first.
	for j := 0; j < n; j++ {
		base := j * nsets
		cj := w.candArena[base : base : base+nsets]
		for s := 0; s < nsets; s++ {
			if in.Proc[j][s] <= T {
				cj = append(cj, s)
			}
		}
		if len(cj) == 0 {
			return false
		}
		w.cands[j] = cj
		sort.Slice(cj, func(a, b int) bool {
			return in.Proc[j][cj[a]] < in.Proc[j][cj[b]]
		})
	}

	// ceiling[j]: the minimal set whose subtree contains every candidate of
	// j, i.e. the subtree j is forced into (-1 if candidates span roots).
	for j := 0; j < n; j++ {
		w.ceiling[j] = w.commonAncestor(f, w.cands[j])
	}

	// forcedMin[s]: total of min processing times of unassigned jobs whose
	// ceiling lies in subtree(s) — a lower bound on future volume in s.
	for j := 0; j < n; j++ {
		w.minP[j] = in.Proc[j][w.cands[j][0]]
		if c := w.ceiling[j]; c >= 0 {
			for _, anc := range f.Chain(c) {
				w.forcedMin[anc] += w.minP[j]
			}
		}
	}

	for s := 0; s < nsets; s++ {
		w.capOf[s] = int64(f.Size(s)) * T
	}

	// Most-constrained-first ordering: fewest candidates, then largest
	// minimum processing time.
	for j := 0; j < n; j++ {
		w.order[j] = j
	}
	sort.SliceStable(w.order, func(a, b int) bool {
		ja, jb := w.order[a], w.order[b]
		if len(w.cands[ja]) != len(w.cands[jb]) {
			return len(w.cands[ja]) < len(w.cands[jb])
		}
		return w.minP[ja] > w.minP[jb]
	})

	// Twin-pair symmetry breaking: two adjacent positions holding jobs
	// with identical Proc rows are interchangeable, so the DFS explores
	// only branches where the second twin's candidate index is ≥ the
	// first's. This is sound for refutation (swapping the pair in any
	// feasible assignment yields one respecting the order) and exact for
	// the witness: the lexicographically-first feasible leaf — what the
	// unpruned DFS returns — already respects it, because swapping a
	// violating pair yields a lex-smaller feasible leaf. Identical rows
	// sort into identical candidate lists, so indices are comparable.
	//
	// The node counter stays canonical (as if nothing were skipped): a
	// skipped branch (c at the head, d < c at the second) is a twin swap
	// of the branch (d, c) explored earlier under the same parent, and an
	// unpruned DFS expands both to the same node count — the committed
	// loads agree on every shared ancestor and the per-candidate (2b)
	// checks agree because a head candidate that committed already passed
	// its own chain check. mirror[k] records those branch sizes as they
	// are explored; skip time adds them back. Node-cap semantics are
	// therefore bit-identical to the unpruned search. Pairs are disjoint
	// (a run of r identical jobs yields ⌊r/2⌋ pairs): deeper chains would
	// need permutation tables keyed by whole tuples for the same
	// guarantee.
	w.pairWith = scratch.Grow(w.pairWith, n)
	w.chosenCi = scratch.Grow(w.chosenCi, n)
	w.mirror = scratch.Grow(w.mirror, n)
	arena := 0
	for k := 0; k < n; k++ {
		w.pairWith[k] = -1
		w.mirror[k] = nil
	}
	for k := 1; k < n; k++ {
		if w.pairWith[k-1] == -1 && procRowsEqual(in.Proc[w.order[k-1]], in.Proc[w.order[k]]) {
			w.pairWith[k] = k - 1
			nc := len(w.cands[w.order[k]])
			arena += nc * nc
		}
	}
	w.mirrorArena = scratch.Grow(w.mirrorArena, arena)
	arena = 0
	for k := 1; k < n; k++ {
		if w.pairWith[k] == k-1 {
			nc := len(w.cands[w.order[k]])
			w.mirror[k] = w.mirrorArena[arena : arena+nc*nc]
			arena += nc * nc
		}
	}

	for j := 0; j < n; j++ {
		w.assign[j] = -1
	}
	return true
}

// procRowsEqual reports whether two jobs have the same processing time on
// every set — the interchangeability test behind twin symmetry breaking.
func procRowsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// search runs the DFS from the root. It is re-runnable on a prepared
// workspace: an unsuccessful search restores every accumulator by
// undoing, and the node counter resets here. Steady-state it allocates
// nothing — errors (node cap, cancellation) are the only allocating
// paths, and they terminate the probe.
func (w *Workspace) search() (bool, error) {
	w.nodes = 0
	w.visited = 0
	return w.dfs(0)
}

// dfs tries every candidate set of the k-th job in order, committing and
// undoing the volume accumulators in place. This is the measured hot path
// of the exact solver: no allocation, no chain walks (the ancestor table
// answers the (2b) membership test), and the context poll sits on a
// ~4k-node stride, outside the per-node arithmetic.
func (w *Workspace) dfs(k int) (bool, error) {
	w.nodes++
	w.visited++
	if w.nodes > w.limit {
		return false, fmt.Errorf("exact: node cap %d exceeded at T=%d", w.limit, w.T)
	}
	// Poll the context on a stride: a single node is tens of
	// nanoseconds, so a per-node Err() call would dominate the search.
	if w.visited&0xfff == 0 && w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return false, fmt.Errorf("exact: canceled after %d nodes at T=%d: %w", w.nodes, w.T, err)
		}
	}
	if k == w.n {
		return true, nil
	}
	f := w.in.Family
	nsets := w.nsets
	j := w.order[k]
	proc := w.in.Proc[j]
	cl := w.ceiling[j]
	cj := w.cands[j]
	if k+1 < w.n && w.pairWith[k+1] == k {
		// Pair head: this invocation owns the second twin's mirror table.
		m := w.mirror[k+1]
		for i := range m {
			m[i] = 0
		}
	}
	// Twin-pair symmetry: resume at the candidate index the paired
	// identical job just committed to — earlier indices reproduce twin
	// swaps of branches the head already explored. Their canonical node
	// counts were recorded in the mirror table as those branches ran, and
	// the unpruned search would have expanded them here first, so the
	// counter (and any cap exhaustion) advances exactly as it would have.
	start := 0
	var mrec []int // non-nil: record branch sizes at mrec[ci]
	if k > 0 && w.pairWith[k] == k-1 {
		start = w.chosenCi[k-1]
		m := w.mirror[k]
		nc := len(cj)
		for d := 0; d < start; d++ {
			w.nodes += m[d*nc+start]
		}
		if w.nodes > w.limit {
			return false, fmt.Errorf("exact: node cap %d exceeded at T=%d", w.limit, w.T)
		}
		mrec = m[start*nc : (start+1)*nc]
	}
	for ci := start; ci < len(cj); ci++ {
		s := cj[ci]
		p := proc[s]
		ok := true
		// (2b) along the ancestor chain of s, including the forced
		// future volume of each subtree.
		for _, anc := range f.Chain(s) {
			add := p
			if cl >= 0 && w.inSub[cl*nsets+anc] {
				// j's minimum was already counted in forcedMin[anc];
				// only the excess over the minimum is new.
				add = p - w.minP[j]
			}
			if w.used[anc]+w.forcedMin[anc]+add > w.capOf[anc] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Commit.
		for _, anc := range f.Chain(s) {
			w.used[anc] += p
		}
		if cl >= 0 {
			for _, anc := range f.Chain(cl) {
				w.forcedMin[anc] -= w.minP[j]
			}
		}
		w.assign[j] = s
		w.chosenCi[k] = ci
		before := w.nodes
		done, err := w.dfs(k + 1)
		if err != nil {
			return false, err
		}
		if done {
			return true, nil
		}
		if mrec != nil {
			mrec[ci] = w.nodes - before
		}
		// Undo.
		w.assign[j] = -1
		for _, anc := range f.Chain(s) {
			w.used[anc] -= p
		}
		if cl >= 0 {
			for _, anc := range f.Chain(cl) {
				w.forcedMin[anc] += w.minP[j]
			}
		}
	}
	return false, nil
}

// commonAncestor returns the minimal family set whose subtree contains all
// the given sets, or -1 when they span different roots.
func (w *Workspace) commonAncestor(f *laminar.Family, sets []int) int {
	if len(sets) == 0 {
		return -1
	}
	// Count how often each ancestor appears across the chains; walking the
	// first chain bottom-up, the first ancestor present in all chains is
	// the minimal common one.
	count := w.ancCount
	for i := range count {
		count[i] = 0
	}
	for _, s := range sets {
		for _, anc := range f.Chain(s) {
			count[anc]++
		}
	}
	for _, anc := range f.Chain(sets[0]) {
		if count[anc] == int32(len(sets)) {
			return anc
		}
	}
	return -1
}

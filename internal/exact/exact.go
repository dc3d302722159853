package exact

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
// the in-place assignment vector, each candidate's precomputed slack
// steps and the per-subtree slack they update. A Workspace is reused
// across the feasibility probes of one binary search (and across
// searches), so a steady-state probe allocates nothing — prepare fills
// retained buffers and every DFS node commits and undoes in place. See
// the package doc for the ownership contract.
type Workspace struct {
	// Probe state, sized to the instance and reused across probes.
	in        *model.Instance
	T         int64
	ctx       context.Context
	n         int
	nodes     int
	limit     int
	cands     [][]int // per job: candidate sets under (2c), cheapest first
	candArena []int   // flat backing for cands rows, job after job
	candOff   []int   // per job: offset of cands[j] in candArena
	ceiling   []int   // minimal subtree the job is forced into (-1: none)
	minP      []int64 // cheapest admissible processing time per job
	order     []int   // most-constrained-first job order
	assign    model.Assignment
	ancCount  []int32 // scratch for commonAncestor

	// The (2b) kernel: slack[s] = |s|·T − committed volume in s − the
	// forced minimum volume of the unassigned jobs whose ceiling lies in
	// subtree(s). Candidate ci of job j updates it by the steps
	// steps[stepOff[g]:stepOff[g+1]], g = candOff[j]+ci, whose last
	// suffix[j] steps walk Chain(ceiling[j]) (see prepare).
	slack   []int64
	steps   []step
	stepOff []int
	suffix  []int // per job: len(Chain(ceiling)), 0 without a ceiling

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

// step is one update of the (2b) kernel: candidate s of job j adds add
// to the volume of ancestor anc ∈ Chain(s).
type step struct {
	anc int
	add int64
}

// prepare sizes the workspace for (in, T) and builds the probe state:
// candidate sets per job under the (2c) pruning (cheapest first), the
// subtree ceilings, the initial slack of every subtree, each candidate's
// slack steps, and the most-constrained-first job order. It reports
// false when some job has no candidate at all — the probe is trivially
// infeasible.
func (w *Workspace) prepare(ctx context.Context, in *model.Instance, T int64, opts Options) bool {
	f := in.Family
	n := in.N()
	nsets := f.Len()
	w.in, w.T, w.ctx = in, T, ctx
	w.n = n
	w.limit = opts.maxNodes()

	w.cands = scratch.Grow(w.cands, n)
	w.candArena = scratch.Grow(w.candArena, n*nsets)
	w.candOff = scratch.Grow(w.candOff, n)
	w.ceiling = scratch.Grow(w.ceiling, n)
	w.suffix = scratch.Grow(w.suffix, n)
	w.minP = scratch.Grow(w.minP, n)
	w.slack = scratch.Grow(w.slack, nsets)
	w.order = scratch.Grow(w.order, n)
	w.assign = scratch.Grow(w.assign, n)
	w.ancCount = scratch.Grow(w.ancCount, nsets)

	// Candidate sets per job under the (2c) pruning, cheapest first,
	// packed job after job into candArena.
	off := 0
	for j := 0; j < n; j++ {
		cj := w.candArena[off:off]
		for s := 0; s < nsets; s++ {
			if in.Proc[j][s] <= T {
				cj = append(cj, s)
			}
		}
		if len(cj) == 0 {
			return false
		}
		w.cands[j], w.candOff[j] = cj, off
		off += len(cj)
		proc := in.Proc[j]
		slices.SortFunc(cj, func(a, b int) int { return cmp.Compare(proc[a], proc[b]) })
	}

	// ceiling[j]: the minimal set whose subtree contains every candidate of
	// j, i.e. the subtree j is forced into (-1 if candidates span roots).
	for j := 0; j < n; j++ {
		w.ceiling[j] = w.commonAncestor(f, w.cands[j])
	}

	// slack[s] starts at |s|·T less the forced volume of subtree(s): the
	// min processing times of the jobs whose ceiling lies in subtree(s),
	// a lower bound on the volume s must still take.
	for s := 0; s < nsets; s++ {
		w.slack[s] = int64(f.Size(s)) * T
	}
	nsteps := 0
	for j := 0; j < n; j++ {
		w.minP[j] = in.Proc[j][w.cands[j][0]]
		if c := w.ceiling[j]; c >= 0 {
			for _, anc := range f.Chain(c) {
				w.slack[anc] -= w.minP[j]
			}
		}
		for _, s := range w.cands[j] {
			nsteps += len(f.Chain(s))
		}
	}

	// The steps of candidate s of job j walk Chain(s). The ceiling is an
	// ancestor of every candidate, so Chain(ceiling) is a suffix of
	// Chain(s): on that suffix j's minimum was already taken out of the
	// slack, and only the excess p − minP[j] is new; on s and its
	// ancestors below the ceiling the whole p is. Committing s subtracts
	// each add, which also moves j's minimum from forced to committed
	// volume.
	w.steps = scratch.Grow(w.steps, nsteps)
	w.stepOff = scratch.Grow(w.stepOff, off+1)
	k := 0
	for j := 0; j < n; j++ {
		suffix := 0
		if c := w.ceiling[j]; c >= 0 {
			suffix = len(f.Chain(c))
		}
		w.suffix[j] = suffix
		for ci, s := range w.cands[j] {
			w.stepOff[w.candOff[j]+ci] = k
			p := in.Proc[j][s]
			ch := f.Chain(s)
			cut := len(ch) - suffix
			for i, anc := range ch {
				add := p
				if i >= cut {
					add = p - w.minP[j]
				}
				w.steps[k] = step{anc, add}
				k++
			}
		}
	}
	w.stepOff[off] = k

	// Most-constrained-first ordering: fewest candidates, then largest
	// minimum processing time.
	for j := 0; j < n; j++ {
		w.order[j] = j
	}
	slices.SortStableFunc(w.order, func(ja, jb int) int {
		if c := cmp.Compare(len(w.cands[ja]), len(w.cands[jb])); c != 0 {
			return c
		}
		return cmp.Compare(w.minP[jb], w.minP[ja])
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
// undoing its slack steps in place. This is the measured hot path of the
// exact solver: no allocation and no chain walks — a candidate's (2b)
// test, commit and undo are each one loop over its precomputed steps
// against the one slack array, and the test skips the suffix rule's
// shared Chain(ceiling) (see the package doc) — and the context poll
// sits on a ~4k-node stride, outside the per-node arithmetic.
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
	j := w.order[k]
	cj := w.cands[j]
	offs := w.stepOff[w.candOff[j] : w.candOff[j]+len(cj)+1]
	allSteps := w.steps
	slack := w.slack
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
	// The suffix rule: the last sfx steps of every candidate walk
	// Chain(ceiling), each adding the candidate's excess over minP[j], so
	// the least slack on it (room) decides the suffix for all of them.
	room := int64(math.MaxInt64)
	sfx := w.suffix[j]
	if sfx > 0 {
		first := allSteps[offs[0]:offs[1]]
		for _, st := range first[len(first)-sfx:] {
			room = min(room, slack[st.anc])
		}
	}
candidates:
	for ci := start; ci < len(cj); ci++ {
		steps := allSteps[offs[ci]:offs[ci+1]]
		if steps[len(steps)-1].add > room {
			// Candidates run cheapest first, so every later excess is
			// at least as large and fails the suffix too.
			break
		}
		// (2b) on the ancestors below the ceiling.
		for _, st := range steps[:len(steps)-sfx] {
			if st.add > slack[st.anc] {
				continue candidates
			}
		}
		for _, st := range steps {
			slack[st.anc] -= st.add
		}
		w.assign[j] = cj[ci]
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
		w.assign[j] = -1
		for _, st := range steps {
			slack[st.anc] += st.add
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

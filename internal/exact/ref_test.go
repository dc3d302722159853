package exact

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/scratch"
	"hsp/internal/testdiff"
	"hsp/internal/workload"
)

// refWorkspace is the reference kernel the slack-step DFS is tested
// against: the chain-walk branch and bound it replaced, kept verbatim —
// prepare with sort.Slice/sort.SliceStable, the ancestor-membership
// table, and separate used/forcedMin/capOf accumulators that every
// candidate's (2b) test, commit and undo walk along Chain(s) and
// Chain(ceiling). It lives only in tests.
type refWorkspace struct {
	family *laminar.Family
	nsets  int
	inSub  []bool // inSub[c*nsets+anc] reports anc ∈ Chain(c), i.e. anc ⊇ c

	in        *model.Instance
	T         int64
	ctx       context.Context
	n         int
	nodes     int
	limit     int
	cands     [][]int
	candArena []int
	ceiling   []int
	minP      []int64
	forcedMin []int64
	capOf     []int64
	used      []int64
	order     []int
	assign    model.Assignment
	ancCount  []int32

	pairWith    []int
	chosenCi    []int
	mirror      [][]int
	mirrorArena []int
	visited     int
}

// refProbe is FeasibleAssignment on the reference kernel: the verdict,
// a copy of the assignment on success, and the probe's error. The
// probe's canonical and visited node counts stay in w.nodes/w.visited.
func (w *refWorkspace) refProbe(ctx context.Context, in *model.Instance, T int64, opts Options) (model.Assignment, bool, error) {
	defer func() { w.ctx, w.in = nil, nil }()
	w.nodes, w.visited = 0, 0
	if !w.prepare(ctx, in, T, opts) {
		return nil, false, nil
	}
	ok, err := w.search()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(model.Assignment, w.n)
	copy(out, w.assign)
	return out, true, nil
}

// prepare sizes the workspace for (in, T) and builds the probe state:
// candidate sets per job under the (2c) pruning (cheapest first), the
// subtree ceilings and forced-volume lower bounds, capacities, and the
// most-constrained-first job order. It reports false when some job has no
// candidate at all — the probe is trivially infeasible.
func (w *refWorkspace) prepare(ctx context.Context, in *model.Instance, T int64, opts Options) bool {
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

// search runs the DFS from the root. It is re-runnable on a prepared
// workspace: an unsuccessful search restores every accumulator by
// undoing, and the node counter resets here. Steady-state it allocates
// nothing — errors (node cap, cancellation) are the only allocating
// paths, and they terminate the probe.
func (w *refWorkspace) search() (bool, error) {
	w.nodes = 0
	w.visited = 0
	return w.dfs(0)
}

// dfs tries every candidate set of the k-th job in order, committing and
// undoing the volume accumulators in place. This is the measured hot path
// of the exact solver: no allocation, no chain walks (the ancestor table
// answers the (2b) membership test), and the context poll sits on a
// ~4k-node stride, outside the per-node arithmetic.
func (w *refWorkspace) dfs(k int) (bool, error) {
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
func (w *refWorkspace) commonAncestor(f *laminar.Family, sets []int) int {
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

// diffProbe runs one feasibility probe on the slack-step kernel (ws) and
// on the reference kernel (ref) and describes the first difference in
// verdict, assignment, canonical or visited node count, or error text.
// With no difference it returns the verdict both kernels reached.
func diffProbe(ctx context.Context, ws *Workspace, ref *refWorkspace, in *model.Instance, T int64, opts Options) (bool, error) {
	ws.nodes, ws.visited = 0, 0
	a, ok, err := FeasibleAssignment(ctx, in, T, opts, ws)
	ra, rok, rerr := ref.refProbe(ctx, in, T, opts)
	if errText(err) != errText(rerr) {
		return false, fmt.Errorf("T=%d cap=%d: error %q, reference %q", T, opts.MaxNodes, errText(err), errText(rerr))
	}
	if ok != rok {
		return false, fmt.Errorf("T=%d cap=%d: verdict %v, reference %v", T, opts.MaxNodes, ok, rok)
	}
	if !slices.Equal(a, ra) {
		return false, fmt.Errorf("T=%d cap=%d: assignment %v, reference %v", T, opts.MaxNodes, a, ra)
	}
	if ws.nodes != ref.nodes || ws.visited != ref.visited {
		return false, fmt.Errorf("T=%d cap=%d: canonical/visited nodes %d/%d, reference %d/%d",
			T, opts.MaxNodes, ws.nodes, ws.visited, ref.nodes, ref.visited)
	}
	return ok, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// e15Instance is shaped like an E15 trial (SMP-CMP 2·2·2, 12 jobs, work
// 20–60, speed spread 0.2): probes near its optimum exhaust the
// experiment's 200,000-node cap.
func e15Instance(tb testing.TB, seed int64, overhead float64) *model.Instance {
	tb.Helper()
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
		Jobs: 12, Seed: seed, MinWork: 20, MaxWork: 60,
		SpeedSpread: 0.2, OverheadPerLevel: overhead,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestKernelMatchesReference requires the slack-step kernel to walk the
// reference kernel's tree exactly: on every probe from one below the LP
// bound up to two above the first feasible T, under a tiny, a small and
// E15's node cap, both kernels must agree on the verdict, the witness,
// the canonical and visited node counts and the error text. The E15-shaped
// instances make the 200,000-node cap fire mid-tree.
func TestKernelMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	type kcase struct {
		name   string
		in     *model.Instance
		capped bool // some probe must exhaust the 200,000-node cap
	}
	var cases []kcase
	for _, c := range testdiff.Cases(28, 120) {
		if c.In.N() <= 12 && c.In.Family.Len() <= 12 {
			cases = append(cases, kcase{c.Name, c.In, false})
		}
		if len(cases) == 20 {
			break
		}
	}
	for _, e := range []struct {
		seed     int64
		overhead float64
	}{{2, 0.1}, {9, 0.1}, {3, 0.6}} {
		name := fmt.Sprintf("e15-%d-%.1f", e.seed, e.overhead)
		cases = append(cases, kcase{name, e15Instance(t, e.seed, e.overhead), true})
	}
	ws, ref := NewWorkspace(), &refWorkspace{}
	for _, c := range cases {
		lpT, err := relax.MinFeasibleT(ctx, c.in, nil)
		if err != nil {
			t.Fatalf("%s: lp bound: %v", c.name, err)
		}
		const bigCap = 200_000
		capHit := false
		lastT := c.in.TrivialUpperBound() + 2
		for T := lpT - 1; T <= lastT; T++ {
			for _, cap := range []int{1 + rng.Intn(50), 100 + rng.Intn(2000), bigCap} {
				ok, err := diffProbe(ctx, ws, ref, c.in, T, Options{MaxNodes: cap})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if cap == bigCap && ref.nodes > bigCap {
					capHit = true
				}
				if cap == bigCap && ok && lastT > T+2 {
					lastT = T + 2
				}
			}
		}
		if c.capped && !capHit {
			t.Errorf("%s: no probe exhausted the %d-node cap", c.name, bigCap)
		}
	}
}

// Package relax builds and solves the fractional relaxations of the
// paper's assignment ILPs (Section V): the decision form (IP-3) for a fixed
// makespan T with the pruned variable set R = {(α,j) : p_αj ≤ T}, the
// binary search for the minimal T with a feasible relaxation, and Lemma
// V.1's push-down transformation that moves all fractional mass onto the
// singleton sets of the laminar family.
package relax

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"hsp/internal/lp"
	"hsp/internal/model"
	"hsp/internal/scratch"
)

// Fractional is a fractional assignment: X[s][j] is the share of job j on
// set s. A feasible Fractional has unit row sums per job over admissible
// pairs with p_αj ≤ T.
type Fractional struct {
	X [][]float64 // [set][job]
}

// NewFractional returns a zero fractional assignment shaped for in.
func NewFractional(in *model.Instance) *Fractional {
	x := make([][]float64, in.Family.Len())
	for s := range x {
		x[s] = make([]float64, in.N())
	}
	return &Fractional{X: x}
}

// Slack computes slack(α, x) = |α|·T − Σ_j Σ_{β⊆α} p_βj · x_βj.
func (fr *Fractional) Slack(in *model.Instance, set int, T int64) float64 {
	f := in.Family
	slack := float64(f.Size(set)) * float64(T)
	for _, b := range f.SubsetIDs(set) {
		for j, v := range fr.X[b] {
			if v > 0 {
				slack -= float64(in.Proc[j][b]) * v
			}
		}
	}
	return slack
}

// Check verifies feasibility of the fractional solution for (IP-3) at T
// within tolerance tol: unit assignment rows, nonnegativity, support inside
// R, and nonnegative slacks.
func (fr *Fractional) Check(in *model.Instance, T int64, tol float64) error {
	f := in.Family
	for j := 0; j < in.N(); j++ {
		sum := 0.0
		for s := 0; s < f.Len(); s++ {
			v := fr.X[s][j]
			if v < -tol {
				return fmt.Errorf("relax: x[%d][%d] = %g negative", s, j, v)
			}
			if v > tol && in.Proc[j][s] > T {
				return fmt.Errorf("relax: x[%d][%d] = %g on pair outside R (p=%d > T=%d)", s, j, v, in.Proc[j][s], T)
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("relax: job %d assignment sum %g ≠ 1", j, sum)
		}
	}
	for s := 0; s < f.Len(); s++ {
		if sl := fr.Slack(in, s, T); sl < -tol*float64(f.Size(s))*float64(T+1) {
			return fmt.Errorf("relax: set %d slack %g negative", s, sl)
		}
	}
	return nil
}

// SingletonOnly reports whether all mass beyond tol sits on singleton sets.
func (fr *Fractional) SingletonOnly(in *model.Instance, tol float64) bool {
	for s := range fr.X {
		if in.Family.IsSingleton(s) {
			continue
		}
		for _, v := range fr.X[s] {
			if v > tol {
				return false
			}
		}
	}
	return true
}

// Workspace holds the relaxation's rebuild-and-re-solve state: the LP
// problem (whose constraint arenas are reused via lp.Problem.Reset), the
// variable/pair tables, constraint scratch, and the simplex Workspace.
// The binary search re-solves near-identical LPs at every probe, so
// holding one Workspace across the probes makes everything after the
// first probe allocation-free except the LP's returned Solution.
//
// A Workspace is owned by one solve at a time and is not goroutine-safe;
// LP points at the underlying simplex workspace for callers (like
// internal/approx) that continue with further LP solves on other
// problems.
type Workspace struct {
	LP     *lp.Workspace
	prob   lp.Problem
	pairs  [][2]int
	index  []int32 // (s*n+j) → LP variable index + 1; 0 = no variable
	idx    []int   // constraint scratch, copied by AddConstraint
	val    []float64
	keys   []uint64 // variable identity keys (s·n+j), for warm subset matching
	probes int      // LP feasibility probes served by this workspace

	// Bracket scratch: the assignment it returns (job → set), the other
	// candidate, the LPT job order and sort keys, and machine loads.
	assign, alt []int
	order       []int32
	key, load   []int64
}

// NewWorkspace returns a Workspace ready for Feasible, ProbeFeasible and
// MinFeasibleT.
func NewWorkspace() *Workspace { return &Workspace{LP: lp.NewWorkspace()} }

// Problem returns the workspace's reusable LP problem, for callers that
// build their own relaxations on its arenas (internal/memcap). Every
// probe here rebuilds it from Reset, so callers may leave anything in it.
func (ws *Workspace) Problem() *lp.Problem { return &ws.prob }

// Stats aggregates solver effort across the workspace's lifetime: how
// many feasibility probes ran and what they cost at the simplex level,
// including how many were answered from a warm basis. Binary searches
// that warm-start pivot strictly less here at identical verdicts.
type Stats struct {
	Probes int         // LP feasibility probes: search verdicts and Feasible witnesses
	LP     lp.Counters // simplex effort underneath the probes
}

// Stats snapshots the workspace counters.
func (ws *Workspace) Stats() Stats {
	return Stats{Probes: ws.probes, LP: ws.LP.Stats()}
}

// ResetStats zeroes the workspace counters.
func (ws *Workspace) ResetStats() {
	ws.probes = 0
	ws.LP.ResetStats()
}

// BuildFeasibility constructs the LP relaxation of (IP-3) for makespan T.
// It returns the problem plus the (set, job) pair of each LP variable.
func BuildFeasibility(in *model.Instance, T int64) (*lp.Problem, [][2]int) {
	ws := &Workspace{}
	buildFeasibilityWS(in, T, ws)
	return &ws.prob, ws.pairs
}

// buildFeasibilityWS builds the (IP-3) relaxation into ws.prob/ws.pairs,
// reusing the workspace's arenas. Constraint order matches the paper:
// the (3) assignment rows, then the (3a) subtree load rows.
func buildFeasibilityWS(in *model.Instance, T int64, ws *Workspace) {
	f := in.Family
	n := in.N()
	nsets := f.Len()
	ws.pairs = ws.pairs[:0]
	ws.index = scratch.Grow(ws.index, nsets*n)
	scratch.Clear(ws.index)
	for s := 0; s < nsets; s++ {
		for j := 0; j < n; j++ {
			if in.Proc[j][s] <= T {
				ws.index[s*n+j] = int32(len(ws.pairs)) + 1
				ws.pairs = append(ws.pairs, [2]int{s, j})
			}
		}
	}
	ws.prob.Reset(len(ws.pairs))
	// Keys identify variables across probes at different T: as T shrinks,
	// pruning removes variables but the survivors keep their (s, j) key,
	// letting the LP workspace warm-start from a larger probe's basis.
	ws.keys = ws.keys[:0]
	for _, pr := range ws.pairs {
		ws.keys = append(ws.keys, uint64(pr[0])*uint64(n)+uint64(pr[1]))
	}
	ws.prob.SetVarKeys(ws.keys)
	// (3): Σ_α x_αj = 1 for every job.
	for j := 0; j < n; j++ {
		ws.idx, ws.val = ws.idx[:0], ws.val[:0]
		for s := 0; s < nsets; s++ {
			if v := ws.index[s*n+j]; v != 0 {
				ws.idx = append(ws.idx, int(v-1))
				ws.val = append(ws.val, 1)
			}
		}
		ws.prob.MustAddConstraint(ws.idx, ws.val, lp.EQ, 1)
	}
	// (3a): Σ_j Σ_{β⊆α} p_βj x_βj ≤ |α|·T for every set α.
	for s := 0; s < nsets; s++ {
		ws.idx, ws.val = ws.idx[:0], ws.val[:0]
		for _, b := range f.SubsetIDs(s) {
			for j := 0; j < n; j++ {
				if v := ws.index[b*n+j]; v != 0 {
					ws.idx = append(ws.idx, int(v-1))
					ws.val = append(ws.val, float64(in.Proc[j][b]))
				}
			}
		}
		ws.prob.MustAddConstraint(ws.idx, ws.val, lp.LE, float64(f.Size(s))*float64(T))
	}
}

// Feasible solves the LP relaxation of (IP-3) at T and returns the
// fractional solution when feasible. The underlying simplex solve aborts
// between pivots once ctx is done (the error wraps ctx.Err()), and the
// caller-held Workspace is reused across solves (nil allocates a private
// one).
func Feasible(ctx context.Context, in *model.Instance, T int64, ws *Workspace) (bool, *Fractional, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	// Witness solves run cold, so the Fractional returned here is the
	// same vertex bit for bit whatever the workspace solved before. Warm
	// start only ever accelerates verdict-only probes.
	ws.LP.InvalidateWarmStart()
	ok, x, err := feasibleWS(ctx, in, T, ws)
	if err != nil || !ok {
		return false, nil, err
	}
	fr := NewFractional(in)
	for k, pr := range ws.pairs {
		fr.X[pr[0]][pr[1]] = x[k]
	}
	return true, fr, nil
}

// ProbeFeasible reports whether the relaxation is feasible at T without
// materializing a witness. Unlike Feasible it keeps the workspace's warm
// basis: a sequence of probes on one workspace answers from dual-simplex
// re-entry whenever it can. Use it when only the verdict matters; ask
// Feasible when the fractional solution itself is needed (that path is
// always cold, so witnesses are reproducible).
func ProbeFeasible(ctx context.Context, in *model.Instance, T int64, ws *Workspace) (bool, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	ok, _, err := feasibleWS(ctx, in, T, ws)
	return ok, err
}

// feasibleWS is the probe shared by Feasible and the binary search: it
// reports feasibility and the raw vertex x over ws.pairs without
// materializing a Fractional (the search only needs the verdict).
func feasibleWS(ctx context.Context, in *model.Instance, T int64, ws *Workspace) (bool, []float64, error) {
	// Fast negative: a job whose cheapest set exceeds T has no variable.
	for j := 0; j < in.N(); j++ {
		if v, _ := in.MinProc(j); v > T {
			return false, nil, nil
		}
	}
	ws.probes++
	buildFeasibilityWS(in, T, ws)
	ok, x, err := ws.prob.Feasible(ctx, ws.LP)
	if err != nil {
		return false, nil, fmt.Errorf("relax: LP at T=%d: %w", T, err)
	}
	return ok, x, nil
}

// Bracket returns bounds lo ≤ T* ≤ hi on the minimal T with a feasible
// (IP-3) relaxation, and an integral assignment a that satisfies (IP-3)
// at hi, all computed on ws's scratch (a is ws's until its next use).
// lo is the larger of the longest cheapest job and the volume bound
// ⌈Σ_j min_α p_jα / m⌉: the load rows of the maximal sets are disjoint,
// so together they hold at most m·T. hi is the smaller makespan of two
// integral assignments, and a is the one achieving it: every job on its
// cheapest set (the trivial bound Σ_j min_α p_jα), and LPT on the
// unrelated projection, whose machine loads of at most C put at most
// |α|·C on every row α. hi is model.Infinity, and a nil, when some job
// has no admissible set.
func Bracket(in *model.Instance, ws *Workspace) (lo, hi int64, a model.Assignment) {
	n := in.N()
	ws.assign = scratch.Grow(ws.assign, n)
	var vol int64
	for j := 0; j < n; j++ {
		v, s := in.MinProc(j)
		if v >= model.Infinity {
			return 1, model.Infinity, nil
		}
		lo = max(lo, v)
		vol += v
		ws.assign[j] = s
	}
	m := int64(in.M())
	lo = max(lo, (vol+m-1)/m, 1)
	hi = max(vol, 1)
	if c, ok := ws.lpt(in); ok && max(c, 1) < hi {
		hi = max(c, 1)
		ws.assign, ws.alt = ws.alt, ws.assign
	}
	return lo, hi, ws.assign
}

// lpt runs the LPT greedy on in's unrelated projection (job j on machine
// i costs p_j on the minimal set containing i): jobs by decreasing
// cheapest projected time, ties by index, each onto the machine where it
// would finish first. It writes the assignment, as sets, to ws.alt and
// returns the makespan; ok is false when some job fits no machine.
func (ws *Workspace) lpt(in *model.Instance) (makespan int64, ok bool) {
	n, m := in.N(), in.M()
	f := in.Family
	proj := func(j, i int) int64 {
		if s := f.MinimalContaining(i); s >= 0 {
			return in.Proc[j][s]
		}
		return model.Infinity
	}
	ws.alt = scratch.Grow(ws.alt, n)
	ws.order = scratch.Grow(ws.order, n)
	ws.key = scratch.Grow(ws.key, n)
	for j := 0; j < n; j++ {
		ws.order[j] = int32(j)
		ws.key[j] = model.Infinity
		for i := 0; i < m; i++ {
			ws.key[j] = min(ws.key[j], proj(j, i))
		}
	}
	slices.SortFunc(ws.order, func(a, b int32) int {
		if c := cmp.Compare(ws.key[b], ws.key[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	ws.load = scratch.Grow(ws.load, m)
	scratch.Clear(ws.load)
	for _, j := range ws.order {
		best, finish := -1, int64(model.Infinity)
		for i := 0; i < m; i++ {
			if p := proj(int(j), i); p < model.Infinity && ws.load[i]+p < finish {
				best, finish = i, ws.load[i]+p
			}
		}
		if best < 0 {
			return 0, false
		}
		ws.load[best] = finish
		ws.alt[j] = f.MinimalContaining(best)
		makespan = max(makespan, finish)
	}
	return makespan, true
}

// MinFeasibleT binary-searches the minimal integer T for which the LP
// relaxation of (IP-3) is feasible. T* is a lower bound on the optimal
// integral makespan. The search spans Bracket's [lo, hi] and answers
// from verdict probes alone; when none is feasible, T* is hi, and the
// integral assignment behind hi is checked against (IP-3) exactly in
// int64 instead of by one more LP. A caller that needs a fractional
// solution at T* asks Feasible for it.
// The binary search checks ctx before every LP probe and each probe itself
// aborts between simplex pivots, so cancellation latency is one pivot, not
// one search; the caller-held Workspace (nil allocates one for the whole
// search) lets every probe reuse one tableau and one constraint arena, so
// the search's steady-state allocations are the per-solve Solutions.
func MinFeasibleT(ctx context.Context, in *model.Instance, ws *Workspace) (int64, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("relax: search: %w", err)
	}
	lo, hi, a := Bracket(in, ws)
	if hi >= model.Infinity {
		return 0, fmt.Errorf("relax: some job has no admissible set")
	}
	top := hi
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, _, err := feasibleWS(ctx, in, mid, ws)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == top {
		// No probe was feasible: T* is the bracket's top, which no probe
		// tested. Its integral assignment is a feasible point there.
		if err := a.Check(in, lo); err != nil {
			return 0, fmt.Errorf("relax: bracket assignment infeasible at its bound %d: %w", lo, err)
		}
	}
	return lo, nil
}

// PushDown applies Lemma V.1 repeatedly: it returns a feasible fractional
// solution at the same T whose support lies only on singleton sets. It
// requires every non-leaf set's children to cover it, which holds after
// model.Instance.WithSingletons.
func PushDown(in *model.Instance, T int64, fr *Fractional) (*Fractional, error) {
	f := in.Family
	if !f.ChildrenCover() {
		return nil, fmt.Errorf("relax: children do not cover every set; call WithSingletons first")
	}
	out := NewFractional(in)
	for s := range fr.X {
		copy(out.X[s], fr.X[s])
	}
	for _, eta := range f.TopDown() {
		if f.IsSingleton(eta) {
			continue
		}
		// Total mass to move off η.
		var moving bool
		for _, v := range out.X[eta] {
			if v > 0 {
				moving = true
				break
			}
		}
		if !moving {
			continue
		}
		children := f.Children(eta)
		slacks := make([]float64, len(children))
		total := 0.0
		for k, c := range children {
			sl := out.Slack(in, c, T)
			if sl < 0 {
				sl = 0
			}
			slacks[k] = sl
			total += sl
		}
		for j, v := range out.X[eta] {
			if v <= 0 {
				out.X[eta][j] = 0
				continue
			}
			if total > 1e-12 {
				for k, c := range children {
					out.X[c][j] += v * slacks[k] / total
				}
			} else {
				// Zero slack below η: by inequality (5) the moved volume is
				// (numerically) zero, so park the mass on the first child to
				// preserve the assignment row.
				out.X[children[0]][j] += v
			}
			out.X[eta][j] = 0
		}
	}
	return out, nil
}

// Package relax builds and solves the fractional relaxations of the
// paper's assignment ILPs (Section V): the decision form (IP-3) for a fixed
// makespan T with the pruned variable set R = {(α,j) : p_αj ≤ T}, the
// binary search for the minimal T with a feasible relaxation, and Lemma
// V.1's push-down transformation that moves all fractional mass onto the
// singleton sets of the laminar family.
//
// Every search probe goes through Workspace.Verdict: a verdict-only LP
// solve (lp.Problem.Verdict) that warm-starts from the previous probe's
// basis and skips pivot round-off residue. MinFeasibleT's probes and
// internal/memcap's are all verdicts. Witnesses (Feasible) are exact
// lp.Problem.Solve vertices, which are always cold.
//
// Relaxation is the one (IP-3) builder in the repository. Section VI's
// memory models (internal/memcap) extend it with their memory packings,
// and the R‖Cmax feasibility LP (internal/unrelated) is the relaxation
// of the singleton family.
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

// Workspace holds the relaxation's rebuild-and-re-solve state: the
// (IP-3) Relaxation its own probes rebuild, the LP problem (whose
// constraint arenas are reused via lp.Problem.Reset), and the simplex
// Workspace. The binary search re-solves near-identical LPs at every
// probe, so holding one Workspace across the probes makes every probe
// after the first allocation-free.
//
// A Workspace is owned by one solve at a time and is not goroutine-safe;
// LP points at the underlying simplex workspace for callers (like
// internal/memcap) that continue with further LP solves on other
// problems.
type Workspace struct {
	LP     *lp.Workspace
	prob   lp.Problem
	ip3    Relaxation
	probes int // (IP-3) feasibility probes served by this workspace

	// Bracket scratch: the assignment it returns (job → set), the other
	// candidate, the LPT job order and sort keys, and machine loads.
	assign, alt []int
	order       []int32
	key, load   []int64
}

// NewWorkspace returns a Workspace ready for Feasible, Verdict and
// MinFeasibleT.
func NewWorkspace() *Workspace { return &Workspace{LP: lp.NewWorkspace()} }

// Problem returns the workspace's reusable LP problem, for callers that
// solve further LPs on its arenas (memcap's rounding). Every probe
// rebuilds it from Reset, so callers may leave anything in it.
func (ws *Workspace) Problem() *lp.Problem { return &ws.prob }

// Stats aggregates solver effort across the workspace's lifetime: how
// many feasibility probes ran and what they cost at the simplex level,
// including how many were answered from a warm basis. Binary searches
// that warm-start pivot strictly less here at identical verdicts.
type Stats struct {
	// Probes counts the (IP-3) LPs solved by MinFeasibleT and Feasible:
	// search verdicts and witnesses, on any family. The singleton-family
	// vertex that approx.TwoApprox and unrelated.LST round is one of
	// them. Verdicts on other relaxations (memcap's) are not counted
	// here, only in LP.
	Probes int
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

// Packing is one packing row Σ a_q·z_q ≤ B over a Relaxation's
// variables. It is sparse and sorted: Idx holds the variables with
// a_q > 0 in strictly increasing order and Val their coefficients, so
// LP rows, residual sums and every rounding decision follow one fixed
// order.
type Packing struct {
	Idx []int
	Val []float64
	B   float64
}

// add appends the entry a_v = a; v must exceed every index already held.
func (pk *Packing) add(v int, a float64) {
	pk.Idx = append(pk.Idx, v)
	pk.Val = append(pk.Val, a)
}

// Relaxation is the LP relaxation of (IP-3) at one probe T, built in one
// pass over the (set, job) pairs. Its variables are the pairs with
// p_αj ≤ T, job-major and set-minor. Its rows are the (3) assignment row
// of every job, Σ_α x_αj = 1, then every nonempty packing: first the
// (3a) load row of every set α, Σ_j Σ_{β⊆α} p_βj x_βj ≤ |α|·T, then the
// extra packings. Section VI's models (internal/memcap) add memory
// packings as extra packings, and Model 1 an admission filter.
//
// Each probe rebuilds a Relaxation in place, so after the first
// (largest-T) probe a rebuild allocates nothing.
type Relaxation struct {
	In *model.Instance
	// Admit[j·|A|+s] reports whether pair (s, j) may be a variable; nil
	// admits every pair.
	Admit []bool
	// Extra[s] lists the extra packings (indices into Packs past the
	// load rows) that a pair on set s charges, Size(j, l) being job j's
	// coefficient in packing l; nil charges none.
	Extra [][]int
	Size  func(j, l int) float64

	Pairs [][2]int  // variable → (set, job)
	Packs []Packing // the load row of every set, then the extra packings

	keys   []uint64  // variable → j·|A| + s, for warm subset matching
	jobEnd []int     // job j's variables are [jobEnd[j-1], jobEnd[j])
	rowLen []int     // set → entries of its load row at the last Build
	seq    []int     // 0, 1, 2, …: the index list of an assignment row
	ones   []float64 // the value list of an assignment row
}

// NewRelaxation returns in's (IP-3) relaxation with no extra packings;
// callers append theirs to Packs.
func NewRelaxation(in *model.Instance) *Relaxation {
	return &Relaxation{In: in, Packs: make([]Packing, in.Family.Len())}
}

// Build enumerates the variables at T, then fills every packing in one
// pass over them: pair (s, j) charges p_sj to the load row of s and of
// each ancestor (Family.Chain), and Size to its extra packings Extra[s].
// Variables are visited in increasing order, so every packing's Idx is
// strictly increasing. A load row is grown only to its entry count at T,
// the variables on the row's subtree, never to the n·|subtree| bound,
// which is quadratic in the depth of a nested family.
func (r *Relaxation) Build(T int64) {
	in, f := r.In, r.In.Family
	nsets := f.Len()
	if c := in.N() * nsets; cap(r.Pairs) < c {
		// At most n·|A| variables: size both tables once.
		r.Pairs, r.keys = make([][2]int, 0, c), make([]uint64, 0, c)
	}
	r.Pairs, r.keys = r.Pairs[:0], r.keys[:0]
	r.jobEnd = scratch.Grow(r.jobEnd, in.N())
	r.rowLen = scratch.Grow(r.rowLen, nsets)
	scratch.Clear(r.rowLen)
	for j := 0; j < in.N(); j++ {
		for s := 0; s < nsets; s++ {
			if in.Proc[j][s] > T || (r.Admit != nil && !r.Admit[j*nsets+s]) {
				continue
			}
			r.Pairs = append(r.Pairs, [2]int{s, j})
			r.keys = append(r.keys, uint64(j)*uint64(nsets)+uint64(s))
			r.rowLen[s]++
		}
		r.jobEnd[j] = len(r.Pairs)
	}
	// Subsets precede their supersets bottom-up, so adding each set's
	// count into its parent leaves every count at its subtree's total.
	for _, s := range f.BottomUp() {
		if a := f.Parent(s); a >= 0 {
			r.rowLen[a] += r.rowLen[s]
		}
	}
	for l := range r.Packs {
		r.Packs[l].Idx, r.Packs[l].Val = r.Packs[l].Idx[:0], r.Packs[l].Val[:0]
	}
	for s := 0; s < nsets; s++ {
		pk := &r.Packs[s]
		pk.Idx, pk.Val = slices.Grow(pk.Idx, r.rowLen[s]), slices.Grow(pk.Val, r.rowLen[s])
		pk.B = float64(f.Size(s)) * float64(T)
	}
	for v, pr := range r.Pairs {
		s, j := pr[0], pr[1]
		p := float64(in.Proc[j][s])
		for _, a := range f.Chain(s) {
			r.Packs[a].add(v, p)
		}
		if r.Extra != nil {
			for _, l := range r.Extra[s] {
				if c := r.Size(j, l); c > 0 {
					r.Packs[l].add(v, c)
				}
			}
		}
	}
	for len(r.seq) < len(r.Pairs) {
		r.seq = append(r.seq, len(r.seq))
		r.ones = append(r.ones, 1)
	}
}

// Span returns the row lists of an assignment row over the consecutive
// columns [lo, hi): the indices lo, …, hi−1 and hi−lo ones. hi may not
// exceed the variable count of the last Build.
func (r *Relaxation) Span(lo, hi int) ([]int, []float64) {
	return r.seq[lo:hi], r.ones[:hi-lo]
}

// Load writes the built relaxation into p. Keys identify variables
// across probes at different T: as T shrinks, pruning removes variables
// but the survivors keep their key, letting the LP workspace warm-start
// from a larger probe's basis. It reports false, leaving p partly built,
// when some job has no variable (the probe is then infeasible).
func (r *Relaxation) Load(p *lp.Problem) bool {
	p.Reset(len(r.Pairs))
	p.SetVarKeys(r.keys)
	start := 0
	for _, end := range r.jobEnd {
		if end == start {
			return false
		}
		idx, val := r.Span(start, end)
		p.MustAddConstraint(idx, val, lp.EQ, 1)
		start = end
	}
	for _, pk := range r.Packs {
		if len(pk.Idx) > 0 {
			p.MustAddConstraint(pk.Idx, pk.Val, lp.LE, pk.B)
		}
	}
	return true
}

// Verdict builds r at T into the workspace's problem and reports whether
// it is feasible, by lp.Problem.Verdict on the workspace's tableau: it
// warm-starts from the previous probe's basis, skips round-off residue
// and returns no vertex. The LP polls ctx between pivots. It is the
// probe of every binary search over a Relaxation.
func (ws *Workspace) Verdict(ctx context.Context, r *Relaxation, T int64) (bool, error) {
	r.Build(T)
	if !r.Load(&ws.prob) {
		return false, nil
	}
	ok, err := ws.prob.Verdict(ctx, ws.LP)
	if err != nil {
		return false, fmt.Errorf("relax: LP at T=%d: %w", T, err)
	}
	return ok, nil
}

// relaxation returns the workspace's own (IP-3) relaxation, set up for in.
func (ws *Workspace) relaxation(in *model.Instance) *Relaxation {
	ws.ip3.In = in
	ws.ip3.Packs = scratch.Grow(ws.ip3.Packs, in.Family.Len())
	return &ws.ip3
}

// Feasible solves the LP relaxation of (IP-3) at T and returns the
// fractional solution when feasible. The solve is lp.Problem.Solve, which
// is always cold, so the Fractional is the same vertex bit for bit
// whatever the workspace solved before. It aborts between pivots once ctx
// is done (the error wraps ctx.Err()), and the caller-held Workspace is
// reused across solves (nil allocates a private one).
func Feasible(ctx context.Context, in *model.Instance, T int64, ws *Workspace) (bool, *Fractional, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.probes++
	r := ws.relaxation(in)
	r.Build(T)
	if !r.Load(&ws.prob) {
		return false, nil, nil
	}
	sol, err := ws.prob.Solve(ctx, ws.LP)
	if err != nil {
		return false, nil, fmt.Errorf("relax: LP at T=%d: %w", T, err)
	}
	if sol.Status == lp.Infeasible {
		return false, nil, nil
	}
	fr := NewFractional(in)
	for k, pr := range r.Pairs {
		fr.X[pr[0]][pr[1]] = sol.X[k]
	}
	return true, fr, nil
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
//
// The probes are Workspace.Verdict solves: they warm-start from each
// other and skip the round-off residue that dense pivoting leaves in the
// tableau, which is most of the row updates on an (IP-3) LP. Feasible's
// witness solve is cold, so it never reads a tableau the search pivoted.
//
// The binary search checks ctx before every LP probe and each probe itself
// aborts between simplex pivots, so cancellation latency is one pivot, not
// one search; the caller-held Workspace (nil allocates one for the whole
// search) lets every probe reuse one tableau and one constraint arena, so
// the search allocates nothing once they have grown.
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
	r := ws.relaxation(in)
	top := hi
	for lo < hi {
		mid := lo + (hi-lo)/2
		ws.probes++
		ok, err := ws.Verdict(ctx, r, mid)
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

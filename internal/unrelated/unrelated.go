// Package unrelated implements the unrelated-parallel-machines toolkit
// (R||Cmax) that Section V of the paper builds on: the feasibility LP for a
// target makespan T over the pruned pair set {(i,j) : p_ij ≤ T}, the
// classic Lenstra–Shmoys–Tardos rounding of a vertex solution (makespan at
// most 2T*), a greedy LPT baseline, and an exact branch-and-bound solver
// for the small instances used to measure approximation ratios.
package unrelated

import (
	"context"
	"fmt"
	"sort"

	"hsp/internal/lp"
	"hsp/internal/model"
	"hsp/internal/sched"
	"hsp/internal/scratch"
)

// Instance is an R||Cmax instance: P[j][i] is the processing time of job j
// on machine i, model.Infinity when forbidden.
type Instance struct {
	P [][]int64
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.P) }

// M returns the number of machines (0 for an empty instance).
func (in *Instance) M() int {
	if len(in.P) == 0 {
		return 0
	}
	return len(in.P[0])
}

// Makespan computes the makespan of an integral assignment job → machine.
func (in *Instance) Makespan(assign []int) int64 {
	load := make([]int64, in.M())
	for j, i := range assign {
		load[i] += in.P[j][i]
	}
	var mk int64
	for _, l := range load {
		if l > mk {
			mk = l
		}
	}
	return mk
}

// minProc returns min_i p_ij and the argmin machine.
func (in *Instance) minProc(j int) (int64, int) {
	best, arg := model.Infinity, -1
	for i, v := range in.P[j] {
		if v < best {
			best, arg = v, i
		}
	}
	return best, arg
}

// FeasibleLP solves the R||Cmax feasibility relaxation at makespan T and
// returns a vertex solution x[j][i] when feasible. The simplex solve
// aborts between pivots once ctx is done (the error wraps ctx.Err()), and
// the caller-held simplex Workspace lets further solves reuse one tableau
// (nil falls back to the solver's internal pool).
func FeasibleLP(ctx context.Context, in *Instance, T int64, ws *lp.Workspace) (bool, [][]float64, error) {
	if ws != nil {
		// Witness solves run cold: the vertex returned here feeds rounding
		// and the golden outputs. Warm start only accelerates the
		// verdict-only probes inside MinFeasibleT.
		ws.InvalidateWarmStart()
	}
	return feasibleLP(ctx, in, T, &lpScratch{ws: ws})
}

// pair is one (job, machine) LP variable of the feasibility relaxation.
type pair struct{ j, i int }

// lpScratch holds the R‖Cmax feasibility-LP build state — the problem
// (rebuilt in place via lp.Problem.Reset), pair tables and constraint
// scratch — plus the simplex workspace, so MinFeasibleT's binary search
// rebuilds every probe into the same backing arrays.
type lpScratch struct {
	ws    *lp.Workspace
	prob  lp.Problem
	pairs []pair
	index []int32 // j*m+i → LP variable index + 1; 0 = no variable
	idx   []int
	val   []float64
	keys  []uint64 // variable identity keys (j·m+i), for warm subset matching
}

// feasibleLP builds and solves the relaxation at T using sc's arenas.
func feasibleLP(ctx context.Context, in *Instance, T int64, sc *lpScratch) (bool, [][]float64, error) {
	n, m := in.N(), in.M()
	sc.pairs = sc.pairs[:0]
	sc.index = scratch.Grow(sc.index, n*m)
	scratch.Clear(sc.index)
	for j := 0; j < n; j++ {
		any := false
		for i := 0; i < m; i++ {
			if in.P[j][i] <= T {
				sc.index[j*m+i] = int32(len(sc.pairs)) + 1
				sc.pairs = append(sc.pairs, pair{j, i})
				any = true
			}
		}
		if !any {
			return false, nil, nil
		}
	}
	sc.prob.Reset(len(sc.pairs))
	// Keys identify variables across probes at different T, so a probe
	// whose variable set shrank still warm-starts from a larger probe's
	// retained basis (subset matching in internal/lp).
	sc.keys = sc.keys[:0]
	for _, pr := range sc.pairs {
		sc.keys = append(sc.keys, uint64(pr.j)*uint64(m)+uint64(pr.i))
	}
	sc.prob.SetVarKeys(sc.keys)
	for j := 0; j < n; j++ {
		sc.idx, sc.val = sc.idx[:0], sc.val[:0]
		for i := 0; i < m; i++ {
			if v := sc.index[j*m+i]; v != 0 {
				sc.idx = append(sc.idx, int(v-1))
				sc.val = append(sc.val, 1)
			}
		}
		sc.prob.MustAddConstraint(sc.idx, sc.val, lp.EQ, 1)
	}
	for i := 0; i < m; i++ {
		sc.idx, sc.val = sc.idx[:0], sc.val[:0]
		for j := 0; j < n; j++ {
			if v := sc.index[j*m+i]; v != 0 {
				sc.idx = append(sc.idx, int(v-1))
				sc.val = append(sc.val, float64(in.P[j][i]))
			}
		}
		if len(sc.idx) > 0 {
			sc.prob.MustAddConstraint(sc.idx, sc.val, lp.LE, float64(T))
		}
	}
	ok, x, err := sc.prob.Feasible(ctx, sc.ws)
	if err != nil || !ok {
		return false, nil, err
	}
	out := make([][]float64, n)
	for j := range out {
		out[j] = make([]float64, m)
	}
	for k, pr := range sc.pairs {
		out[pr.j][pr.i] = x[k]
	}
	return true, out, nil
}

// MinFeasibleT binary-searches the minimal integer T with a feasible
// relaxation and returns a vertex solution at that T. The binary search
// checks ctx before every probe (each probe itself aborts between simplex
// pivots), and every probe rebuilds into one build scratch backed by the
// caller-held simplex workspace (nil allocates a private one for the whole
// search).
func MinFeasibleT(ctx context.Context, in *Instance, ws *lp.Workspace) (int64, [][]float64, error) {
	var lo, hi int64 = 1, 0
	for j := 0; j < in.N(); j++ {
		v, _ := in.minProc(j)
		if v >= model.Infinity {
			return 0, nil, fmt.Errorf("unrelated: job %d has no usable machine", j)
		}
		hi += v
		if v > lo {
			lo = v
		}
	}
	if hi < lo {
		hi = lo
	}
	if ws == nil {
		ws = lp.NewWorkspace()
	}
	sc := &lpScratch{ws: ws}
	var best [][]float64
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, x, err := feasibleLP(ctx, in, mid, sc)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi, best = mid, x
		} else {
			lo = mid + 1
		}
	}
	// The witness at T* is re-solved cold: probes may answer from a warm
	// basis, but the returned vertex must be the cold path's, bit for bit.
	ws.InvalidateWarmStart()
	if best == nil {
		ok, x, err := feasibleLP(ctx, in, lo, sc)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, fmt.Errorf("unrelated: infeasible at trivial upper bound %d", lo)
		}
		best = x
	} else {
		ok, x, err := feasibleLP(ctx, in, lo, sc)
		if err != nil || !ok {
			return 0, nil, fmt.Errorf("unrelated: re-solve at T*=%d failed (err=%v)", lo, err)
		}
		best = x
	}
	return lo, best, nil
}

// RoundVertex applies the LST rounding to a vertex solution x at makespan
// T: jobs with an (almost) integral share keep their machine; the bipartite
// graph of the remaining fractional shares admits a perfect matching of
// jobs to machines, giving each machine at most one extra job of size ≤ T.
func RoundVertex(in *Instance, T int64, x [][]float64) ([]int, error) {
	const intTol = 1e-6
	n, m := in.N(), in.M()
	assign := make([]int, n)
	for j := range assign {
		assign[j] = -1
	}
	var fracJobs []int
	adj := make(map[int][]int) // fractional job -> candidate machines
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if x[j][i] >= 1-intTol {
				assign[j] = i
				break
			}
		}
		if assign[j] >= 0 {
			continue
		}
		var cands []int
		for i := 0; i < m; i++ {
			if x[j][i] > intTol {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("unrelated: job %d has no fractional support", j)
		}
		adj[j] = cands
		fracJobs = append(fracJobs, j)
	}
	// Perfect matching of fractional jobs into machines (≤ 1 job per
	// machine) via augmenting paths; guaranteed to exist for vertex x.
	matchOfMachine := make([]int, m)
	for i := range matchOfMachine {
		matchOfMachine[i] = -1
	}
	var try func(j int, seen []bool) bool
	try = func(j int, seen []bool) bool {
		for _, i := range adj[j] {
			if seen[i] {
				continue
			}
			seen[i] = true
			if matchOfMachine[i] < 0 || try(matchOfMachine[i], seen) {
				matchOfMachine[i] = j
				return true
			}
		}
		return false
	}
	for _, j := range fracJobs {
		if !try(j, make([]bool, m)) {
			return nil, fmt.Errorf("unrelated: no perfect matching for fractional jobs (x is not a vertex?)")
		}
	}
	for i, j := range matchOfMachine {
		if j >= 0 {
			assign[j] = i
		}
	}
	return assign, nil
}

// LST runs the full Lenstra–Shmoys–Tardos pipeline: binary search for the
// minimal LP-feasible T*, then round the vertex solution. The returned
// assignment has makespan at most 2·T* ≤ 2·OPT. ctx aborts the search
// between simplex pivots, and the caller-held workspace carries one
// tableau across every probe (nil allocates a private one).
func LST(ctx context.Context, in *Instance, ws *lp.Workspace) (assign []int, lpT int64, err error) {
	T, x, err := MinFeasibleT(ctx, in, ws)
	if err != nil {
		return nil, 0, err
	}
	assign, err = RoundVertex(in, T, x)
	if err != nil {
		return nil, 0, err
	}
	return assign, T, nil
}

// LPT is the greedy baseline: jobs in decreasing order of their best
// processing time, each placed on the machine minimizing its completion.
func LPT(in *Instance) ([]int, int64) {
	n, m := in.N(), in.M()
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, _ := in.minProc(order[a])
		vb, _ := in.minProc(order[b])
		return va > vb
	})
	load := make([]int64, m)
	assign := make([]int, n)
	for _, j := range order {
		best, bestLoad := -1, model.Infinity
		for i := 0; i < m; i++ {
			if in.P[j][i] >= model.Infinity {
				continue
			}
			if l := load[i] + in.P[j][i]; l < bestLoad {
				best, bestLoad = i, l
			}
		}
		assign[j] = best
		if best >= 0 {
			load[best] += in.P[j][best]
		}
	}
	return assign, in.Makespan(assign)
}

// ExactSmall finds the optimal assignment by depth-first branch and bound;
// intended for the small instances of the approximation-ratio experiments.
func ExactSmall(in *Instance) ([]int, int64, error) {
	n, m := in.N(), in.M()
	if n == 0 {
		return nil, 0, nil
	}
	_, ub := LPT(in)
	bestMk := ub
	best := make([]int, n)
	if a, _ := LPT(in); len(a) == n {
		copy(best, a)
	}
	// Jobs in decreasing best-time order tightens pruning.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, _ := in.minProc(order[a])
		vb, _ := in.minProc(order[b])
		return va > vb
	})
	load := make([]int64, m)
	cur := make([]int, n)
	nodes := 0
	const maxNodes = 20_000_000
	var dfs func(k int) error
	dfs = func(k int) error {
		nodes++
		if nodes > maxNodes {
			return fmt.Errorf("unrelated: exact search exceeded %d nodes", maxNodes)
		}
		if k == n {
			var mk int64
			for _, l := range load {
				if l > mk {
					mk = l
				}
			}
			if mk < bestMk {
				bestMk = mk
				copy(best, cur)
			}
			return nil
		}
		j := order[k]
		for i := 0; i < m; i++ {
			p := in.P[j][i]
			if p >= model.Infinity || load[i]+p >= bestMk {
				continue
			}
			load[i] += p
			cur[j] = i
			if err := dfs(k + 1); err != nil {
				return err
			}
			load[i] -= p
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return nil, 0, err
	}
	return best, bestMk, nil
}

// ScheduleAssignment lays an integral assignment out nonpreemptively, each
// machine running its jobs back to back from time 0.
func ScheduleAssignment(in *Instance, assign []int) *sched.Schedule {
	n, m := in.N(), in.M()
	s := sched.New(n, m, in.Makespan(assign))
	cursor := make([]int64, m)
	for j, i := range assign {
		p := in.P[j][i]
		if p <= 0 {
			continue
		}
		s.Add(j, i, cursor[i], cursor[i]+p)
		cursor[i] += p
	}
	return s
}

// FromProjection wraps a processing-time matrix (as produced by
// model.Instance.UnrelatedProjection) as an Instance.
func FromProjection(p [][]int64) *Instance { return &Instance{P: p} }

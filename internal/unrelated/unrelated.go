// Package unrelated implements the unrelated-parallel-machines toolkit
// (R||Cmax) that Section V of the paper builds on: the classic
// Lenstra–Shmoys–Tardos rounding of a vertex solution (makespan at most
// 2T*), a greedy LPT baseline, and an exact branch-and-bound solver for
// the small instances used to measure approximation ratios. The
// feasibility LP for a target makespan T over the pruned pair set
// {(i,j) : p_ij ≤ T} is (IP-3) on the singleton family, so internal/relax
// builds and solves it (Instance.Hierarchical).
package unrelated

import (
	"context"
	"fmt"
	"sort"

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/sched"
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

// Hierarchical returns in as a hierarchical instance over the singleton
// family {{0}, …, {m−1}}, set i being machine i. Its (IP-3) relaxation
// at T is the R‖Cmax feasibility LP over the pairs with p_ij ≤ T: one
// assignment row per job and one load row ≤ T per machine, so
// internal/relax searches and solves it. The processing times are shared
// with in, not copied. An instance without jobs records no machine
// count, so it gets one machine.
func (in *Instance) Hierarchical() *model.Instance {
	return &model.Instance{Family: laminar.Singletons(max(in.M(), 1)), Proc: in.P}
}

// RoundVertex applies the LST rounding to a vertex solution x of
// in.Hierarchical()'s relaxation at makespan T (relax.Fractional.X: x[i][j]
// is job j's share on machine i): jobs with an (almost) integral share
// keep their machine; the bipartite graph of the remaining fractional
// shares admits a perfect matching of jobs to machines, giving each
// machine at most one extra job of size ≤ T.
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
			if x[i][j] >= 1-intTol {
				assign[j] = i
				break
			}
		}
		if assign[j] >= 0 {
			continue
		}
		var cands []int
		for i := 0; i < m; i++ {
			if x[i][j] > intTol {
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

// LST runs the full Lenstra–Shmoys–Tardos pipeline on in.Hierarchical():
// relax.MinFeasibleT's binary search for the minimal LP-feasible T*, then
// relax.Feasible's cold vertex at T*, rounded by RoundVertex. The
// returned assignment has makespan at most 2·T* ≤ 2·OPT. ctx aborts the
// search between simplex pivots, and the caller-held workspace carries
// one tableau across every probe (nil allocates a private one).
func LST(ctx context.Context, in *Instance, ws *relax.Workspace) (assign []int, lpT int64, err error) {
	h := in.Hierarchical()
	if ws == nil {
		ws = relax.NewWorkspace()
	}
	T, err := relax.MinFeasibleT(ctx, h, ws)
	if err != nil {
		return nil, 0, err
	}
	ok, x, err := relax.Feasible(ctx, h, T, ws)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("unrelated: relaxation infeasible at T*=%d", T)
	}
	assign, err = RoundVertex(in, T, x.X)
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

package memcap

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hsp/internal/hier"
	"hsp/internal/lp"
	"hsp/internal/model"
	"hsp/internal/sched"
)

// Model1 is Section VI's first extension: machine i has budget B_i; a job
// assigned to mask α charges s_ij against every machine i ∈ α.
type Model1 struct {
	In     *model.Instance
	Budget []int64   // B_i per machine
	Size   [][]int64 // s_ij, [job][machine]
}

// Validate checks dimensions and nonnegativity.
func (m1 *Model1) Validate() error {
	if err := m1.In.Validate(); err != nil {
		return err
	}
	if len(m1.Budget) != m1.In.M() {
		return fmt.Errorf("memcap: %d budgets for %d machines", len(m1.Budget), m1.In.M())
	}
	for i, b := range m1.Budget {
		if b <= 0 {
			return fmt.Errorf("memcap: machine %d has nonpositive budget %d", i, b)
		}
	}
	if len(m1.Size) != m1.In.N() {
		return fmt.Errorf("memcap: %d size rows for %d jobs", len(m1.Size), m1.In.N())
	}
	for j, row := range m1.Size {
		if len(row) != m1.In.M() {
			return fmt.Errorf("memcap: job %d has %d sizes for %d machines", j, len(row), m1.In.M())
		}
		for i, s := range row {
			if s < 0 {
				return fmt.Errorf("memcap: job %d has negative size on machine %d", j, i)
			}
		}
	}
	return nil
}

// Model2 is Section VI's second extension: the family is a tree with
// uniform leaf level; a node of height h (≠ root) has capacity µ^h charged
// by s_j for every job assigned exactly to it.
type Model2 struct {
	In      *model.Instance
	JobSize []float64 // s_j ≤ 1 per job
	Mu      float64   // µ > 1
}

// Validate checks the structural assumptions of Model 2.
func (m2 *Model2) Validate() error {
	if err := m2.In.Validate(); err != nil {
		return err
	}
	f := m2.In.Family
	if !f.IsTree() {
		return fmt.Errorf("memcap: model 2 requires a tree family")
	}
	if !f.UniformLeafLevel() {
		return fmt.Errorf("memcap: model 2 requires uniform leaf level")
	}
	if m2.Mu <= 1 {
		return fmt.Errorf("memcap: µ must exceed 1, got %g", m2.Mu)
	}
	if len(m2.JobSize) != m2.In.N() {
		return fmt.Errorf("memcap: %d job sizes for %d jobs", len(m2.JobSize), m2.In.N())
	}
	for j, s := range m2.JobSize {
		if s < 0 || s > 1 {
			return fmt.Errorf("memcap: job %d size %g outside [0,1]", j, s)
		}
	}
	return nil
}

// Sigma returns σ = 2 + H_k for a k-level family (Theorem VI.3).
func Sigma(levels int) float64 {
	h := 0.0
	for i := 1; i <= levels; i++ {
		h += 1.0 / float64(i)
	}
	return 2 + h
}

// SigmaTwoLevel returns the sharper σ = 3 + 1/m that Theorem VI.3 proves
// for two-level (semi-partitioned) families: the column sums of the
// normalized constraint matrix involve only the local load (≤ 1), the
// global load (≤ 1/m) and the memory term (≤ 1), so ρ = 2 + 1/m suffices.
func SigmaTwoLevel(m int) float64 {
	return 3 + 1/float64(m)
}

// Result reports a bicriteria solution.
type Result struct {
	Instance   *model.Instance
	Assignment model.Assignment
	TLP        int64 // minimal T with a feasible constrained relaxation (≤ OPT)
	Makespan   int64 // achievable makespan of the rounded assignment
	Schedule   *sched.Schedule
	// MemFactor is the worst ratio of achieved memory use to budget
	// (Theorem VI.1: ≤ 3; Theorem VI.3: ≤ 2+H_k).
	MemFactor float64
	// LoadFactor is Makespan / TLP.
	LoadFactor float64
	Fallbacks  int // rounding steps outside the Lemma VI.2 drop rule
}

// pairVars enumerates master variables (set, job) with p ≤ T and, for
// model 1, memory that fits every machine of the set.
func pairVars(in *model.Instance, T int64, fits func(set, job int) bool) (varJob []int, pairs [][2]int) {
	for j := 0; j < in.N(); j++ {
		for s := 0; s < in.Family.Len(); s++ {
			if in.Proc[j][s] <= T && (fits == nil || fits(s, j)) {
				varJob = append(varJob, j)
				pairs = append(pairs, [2]int{s, j})
			}
		}
	}
	return
}

// feasibleConstrainedLP reports whether the (IP-3)+memory relaxation is
// feasible at T. The packing builder receives the variable list. The
// caller-held problem and simplex workspace are reused probe to probe
// (the problem is rebuilt in place via Reset; a nil workspace falls back
// to the solver's internal pool).
func feasibleConstrainedLP(ctx context.Context, in *model.Instance, varJob []int, pairs [][2]int, packings []Packing, p *lp.Problem, ws *lp.Workspace) (bool, error) {
	p.Reset(len(pairs))
	// Keys identify (job, set) variables across probes at different T so
	// the verdict-only binary search warm-starts even as pruning shrinks
	// the variable set (subset matching in internal/lp). pairVars
	// enumerates j-major, s-minor, so the keys are strictly increasing.
	nsets := in.Family.Len()
	keys := make([]uint64, len(pairs))
	for v, pr := range pairs {
		keys[v] = uint64(pr[1])*uint64(nsets) + uint64(pr[0])
	}
	p.SetVarKeys(keys)
	jobVars := make([][]int, in.N())
	for v, j := range varJob {
		jobVars[j] = append(jobVars[j], v)
	}
	for j := 0; j < in.N(); j++ {
		if len(jobVars[j]) == 0 {
			return false, nil
		}
		val := make([]float64, len(jobVars[j]))
		for k := range val {
			val[k] = 1
		}
		p.MustAddConstraint(jobVars[j], val, lp.EQ, 1)
	}
	for _, pk := range packings {
		var idx []int
		for v := range pk.Coef {
			idx = append(idx, v)
		}
		// Map iteration order is random; sorted entries keep the arena
		// signature stable probe to probe so warm matching can see that
		// only the right-hand sides changed.
		sort.Ints(idx)
		val := make([]float64, len(idx))
		for k, v := range idx {
			val[k] = pk.Coef[v]
		}
		if len(idx) > 0 {
			p.MustAddConstraint(idx, val, lp.LE, pk.B)
		}
	}
	ok, _, err := p.Feasible(ctx, ws)
	return ok, err
}

// loadPackings builds the (3a) load constraints as packings with ratio rho.
func loadPackings(in *model.Instance, pairs [][2]int, T int64, rho float64) []Packing {
	f := in.Family
	out := make([]Packing, f.Len())
	inSubtree := make([]map[int]bool, f.Len())
	for s := 0; s < f.Len(); s++ {
		inSubtree[s] = map[int]bool{}
		for _, b := range f.SubsetIDs(s) {
			inSubtree[s][b] = true
		}
	}
	for s := 0; s < f.Len(); s++ {
		coef := map[int]float64{}
		for v, pr := range pairs {
			if inSubtree[s][pr[0]] {
				coef[v] = float64(in.Proc[pr[1]][pr[0]])
			}
		}
		out[s] = Packing{
			Name: fmt.Sprintf("load(set %d)", s),
			Coef: coef,
			B:    float64(f.Size(s)) * float64(T),
			Rho:  rho,
		}
	}
	return out
}

// SolveModel1 finds the minimal T with a feasible constrained relaxation
// and rounds it iteratively, targeting makespan ≤ 3T and memory ≤ 3B_i
// (Theorem VI.1, ρ = 2). The binary search and every iterative-rounding
// LP poll ctx between simplex pivots.
func SolveModel1(ctx context.Context, m1 *Model1) (*Result, error) {
	if err := m1.Validate(); err != nil {
		return nil, err
	}
	in := m1.In.WithSingletons()
	// Size rows are per machine, unaffected by the singleton extension.
	const rho = 2

	fits := func(s, j int) bool {
		for _, i := range in.Family.Machines(s) {
			if m1.Size[j][i] > m1.Budget[i] {
				return false
			}
		}
		return true
	}
	memPackings := func(pairs [][2]int) []Packing {
		out := make([]Packing, in.M())
		for i := 0; i < in.M(); i++ {
			coef := map[int]float64{}
			for v, pr := range pairs {
				if in.Family.Contains(pr[0], i) && m1.Size[pr[1]][i] > 0 {
					coef[v] = float64(m1.Size[pr[1]][i])
				}
			}
			out[i] = Packing{
				Name: fmt.Sprintf("mem(machine %d)", i),
				Coef: coef,
				B:    float64(m1.Budget[i]),
				Rho:  rho,
			}
		}
		return out
	}

	build := func(T int64) ([]int, [][2]int, []Packing) {
		varJob, pairs := pairVars(in, T, fits)
		packs := append(loadPackings(in, pairs, T, rho), memPackings(pairs)...)
		return varJob, pairs, packs
	}
	tlp, err := minFeasibleT(ctx, in, build)
	if err != nil {
		return nil, err
	}
	varJob, pairs, packs := build(tlp)
	rr, err := iterativeRound(ctx, varJob, in.N(), packs)
	if err != nil {
		return nil, err
	}
	a := choiceToAssignment(rr.choice, pairs, in.N())
	res, err := finish(in, a, tlp, rr.fallbacks)
	if err != nil {
		return nil, err
	}
	// Memory factor: worst usage/budget over machines.
	for i := 0; i < in.M(); i++ {
		var use int64
		for j, s := range a {
			if in.Family.Contains(s, i) {
				use += m1.Size[j][i]
			}
		}
		if f := float64(use) / float64(m1.Budget[i]); f > res.MemFactor {
			res.MemFactor = f
		}
	}
	return res, nil
}

// SolveModel2 finds the minimal T with a feasible (IP-4) relaxation and
// rounds it with ρ = 1 + H_k, targeting σ = 2 + H_k on both criteria
// (Theorem VI.3). ctx is polled as in SolveModel1.
func SolveModel2(ctx context.Context, m2 *Model2) (*Result, error) {
	if err := m2.Validate(); err != nil {
		return nil, err
	}
	in := m2.In
	f := in.Family
	root := f.Roots()[0]
	k := f.Levels()
	rho := Sigma(k) - 1 // 1 + H_k
	if k == 2 {
		rho = SigmaTwoLevel(f.M()) - 1 // the sharper 2 + 1/m of Theorem VI.3
	}

	capOf := func(s int) float64 { return math.Pow(m2.Mu, float64(f.Height(s))) }
	memPackings := func(pairs [][2]int) []Packing {
		var out []Packing
		for s := 0; s < f.Len(); s++ {
			if s == root {
				continue // the root has unbounded capacity
			}
			coef := map[int]float64{}
			for v, pr := range pairs {
				if pr[0] == s && m2.JobSize[pr[1]] > 0 {
					coef[v] = m2.JobSize[pr[1]]
				}
			}
			out = append(out, Packing{
				Name: fmt.Sprintf("mem(set %d)", s),
				Coef: coef,
				B:    capOf(s),
				Rho:  rho,
			})
		}
		return out
	}
	build := func(T int64) ([]int, [][2]int, []Packing) {
		varJob, pairs := pairVars(in, T, nil)
		packs := append(loadPackings(in, pairs, T, rho), memPackings(pairs)...)
		return varJob, pairs, packs
	}
	tlp, err := minFeasibleT(ctx, in, build)
	if err != nil {
		return nil, err
	}
	varJob, pairs, packs := build(tlp)
	rr, err := iterativeRound(ctx, varJob, in.N(), packs)
	if err != nil {
		return nil, err
	}
	a := choiceToAssignment(rr.choice, pairs, in.N())
	res, err := finish(in, a, tlp, rr.fallbacks)
	if err != nil {
		return nil, err
	}
	for s := 0; s < f.Len(); s++ {
		if s == root {
			continue
		}
		use := 0.0
		for j, set := range a {
			if set == s {
				use += m2.JobSize[j]
			}
		}
		if fct := use / capOf(s); fct > res.MemFactor {
			res.MemFactor = fct
		}
	}
	return res, nil
}

// minFeasibleT binary-searches the minimal T whose constrained relaxation
// is feasible. Each probe's LP polls ctx between pivots.
func minFeasibleT(ctx context.Context, in *model.Instance, build func(T int64) ([]int, [][2]int, []Packing)) (int64, error) {
	lo := in.LowerBoundSimple()
	if lo < 1 {
		lo = 1
	}
	hi := in.TrivialUpperBound()
	if hi >= model.Infinity {
		return 0, fmt.Errorf("memcap: some job has no admissible set")
	}
	if hi < lo {
		hi = lo
	}
	// One problem and one simplex workspace across every probe of the
	// binary search: each probe rebuilds into the same arenas and tableau.
	var prob lp.Problem
	ws := lp.NewWorkspace()
	check := func(T int64) (bool, error) {
		varJob, pairs, packs := build(T)
		return feasibleConstrainedLP(ctx, in, varJob, pairs, packs, &prob, ws)
	}
	if ok, err := check(hi); err != nil {
		return 0, err
	} else if !ok {
		return 0, fmt.Errorf("memcap: memory constraints fractionally infeasible at any makespan")
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := check(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// choiceToAssignment maps chosen master variables back to set ids.
func choiceToAssignment(choice []int, pairs [][2]int, n int) model.Assignment {
	a := make(model.Assignment, n)
	for j := 0; j < n; j++ {
		a[j] = pairs[choice[j]][0]
	}
	return a
}

// finish schedules the rounded assignment at its own minimal makespan.
func finish(in *model.Instance, a model.Assignment, tlp int64, fallbacks int) (*Result, error) {
	mk := a.MinMakespan(in)
	s, err := hier.Schedule(in, a, mk)
	if err != nil {
		return nil, fmt.Errorf("memcap: scheduling rounded assignment: %w", err)
	}
	return &Result{
		Instance:   in,
		Assignment: a,
		TLP:        tlp,
		Makespan:   mk,
		Schedule:   s,
		LoadFactor: float64(mk) / float64(tlp),
		Fallbacks:  fallbacks,
	}, nil
}

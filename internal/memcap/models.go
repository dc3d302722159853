package memcap

import (
	"context"
	"fmt"
	"math"

	"hsp/internal/hier"
	"hsp/internal/model"
	"hsp/internal/relax"
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

// Sigma returns the σ Theorem VI.3 certifies on m2's family: 3 + 1/m for
// two levels, 2 + H_k for k levels otherwise.
func (m2 *Model2) Sigma() float64 {
	f := m2.In.Family
	if f.Levels() == 2 {
		return SigmaTwoLevel(f.M())
	}
	return Sigma(f.Levels())
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

// relaxation is one model's constrained relaxation: (IP-3) with the
// model's memory packings, rounded with violation ratio rho.
type relaxation struct {
	*relax.Relaxation
	rho float64
}

// newRelaxation returns in's (IP-3) relaxation extended by one memory
// packing per capacity in mem; memOf[s] lists the memory packings a pair
// on set s charges, and size(j, l) is job j's coefficient in packing l.
func newRelaxation(in *model.Instance, rho float64, mem []float64, memOf [][]int, size func(j, l int) float64) relaxation {
	r := relax.NewRelaxation(in)
	for _, B := range mem {
		r.Packs = append(r.Packs, relax.Packing{B: B})
	}
	r.Extra, r.Size = memOf, size
	return relaxation{r, rho}
}

// SolveModel1 finds the minimal T with a feasible constrained relaxation
// and rounds it iteratively, targeting makespan ≤ 3T and memory ≤ 3B_i
// (Theorem VI.1, ρ = 2). The binary search and every iterative-rounding
// LP run on the caller-held workspace (nil allocates a private one) and
// poll ctx between simplex pivots.
func SolveModel1(ctx context.Context, m1 *Model1, ws *relax.Workspace) (*Result, error) {
	if err := m1.Validate(); err != nil {
		return nil, err
	}
	res, err := solve(ctx, model1Relaxation(m1), ws)
	if err != nil {
		return nil, err
	}
	// Memory factor: worst usage/budget over machines.
	in := res.Instance
	for i := 0; i < in.M(); i++ {
		var use int64
		for j, s := range res.Assignment {
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

// model1Relaxation sets up Model 1's relaxation on the singleton-extended
// instance: one memory row per machine, charged s_ij by every pair whose
// set contains machine i, and only pairs whose job fits every machine of
// the set admitted.
func model1Relaxation(m1 *Model1) relaxation {
	in := m1.In.WithSingletons()
	f := in.Family
	nsets := f.Len()
	// Size rows are per machine, unaffected by the singleton extension.
	mem := make([]float64, in.M())
	for i, B := range m1.Budget {
		mem[i] = float64(B)
	}
	memOf := make([][]int, nsets)
	admit := make([]bool, in.N()*nsets)
	for s := 0; s < nsets; s++ {
		for _, i := range f.Machines(s) {
			memOf[s] = append(memOf[s], nsets+i)
		}
		for j := 0; j < in.N(); j++ {
			fits := true
			for _, i := range f.Machines(s) {
				if m1.Size[j][i] > m1.Budget[i] {
					fits = false
					break
				}
			}
			admit[j*nsets+s] = fits
		}
	}
	const rho = 2
	r := newRelaxation(in, rho, mem, memOf, func(j, l int) float64 { return float64(m1.Size[j][l-nsets]) })
	r.Admit = admit
	return r
}

// SolveModel2 finds the minimal T with a feasible (IP-4) relaxation and
// rounds it with ρ = 1 + H_k, targeting σ = 2 + H_k on both criteria
// (Theorem VI.3). ctx and ws are as in SolveModel1.
func SolveModel2(ctx context.Context, m2 *Model2, ws *relax.Workspace) (*Result, error) {
	if err := m2.Validate(); err != nil {
		return nil, err
	}
	res, err := solve(ctx, model2Relaxation(m2), ws)
	if err != nil {
		return nil, err
	}
	f := m2.In.Family
	root := f.Roots()[0]
	for s := 0; s < f.Len(); s++ {
		if s == root {
			continue
		}
		use := 0.0
		for j, set := range res.Assignment {
			if set == s {
				use += m2.JobSize[j]
			}
		}
		if fct := use / m2.capacity(s); fct > res.MemFactor {
			res.MemFactor = fct
		}
	}
	return res, nil
}

// capacity is µ^h, the memory capacity of a set of height h.
func (m2 *Model2) capacity(s int) float64 {
	return math.Pow(m2.Mu, float64(m2.In.Family.Height(s)))
}

// model2Relaxation sets up Model 2's relaxation: one memory row per set but
// the root (which has unbounded capacity), charged s_j by the pairs
// assigned exactly to that set.
func model2Relaxation(m2 *Model2) relaxation {
	in := m2.In
	f := in.Family
	root := f.Roots()[0]
	rho := m2.Sigma() - 1 // 1 + H_k, or the sharper 2 + 1/m for two levels
	var mem []float64
	memOf := make([][]int, f.Len())
	for s := 0; s < f.Len(); s++ {
		if s != root {
			memOf[s] = []int{f.Len() + len(mem)}
			mem = append(mem, m2.capacity(s))
		}
	}
	return newRelaxation(in, rho, mem, memOf, func(j, _ int) float64 { return m2.JobSize[j] })
}

// solve runs both models' pipeline on ws: the binary search for T_LP,
// Lemma VI.2's rounding of the relaxation at T_LP, and the schedule.
func solve(ctx context.Context, r relaxation, ws *relax.Workspace) (*Result, error) {
	if ws == nil {
		ws = relax.NewWorkspace()
	}
	tlp, err := minFeasibleT(ctx, r.Relaxation, ws)
	if err != nil {
		return nil, err
	}
	r.Build(tlp)
	rr, err := iterativeRound(ctx, r, ws)
	if err != nil {
		return nil, err
	}
	a := make(model.Assignment, r.In.N())
	for j, v := range rr.choice {
		a[j] = r.Pairs[v][0]
	}
	mk := a.MinMakespan(r.In)
	s, err := hier.Schedule(r.In, a, mk)
	if err != nil {
		return nil, fmt.Errorf("memcap: scheduling rounded assignment: %w", err)
	}
	return &Result{
		Instance:   r.In,
		Assignment: a,
		TLP:        tlp,
		Makespan:   mk,
		Schedule:   s,
		LoadFactor: float64(mk) / float64(tlp),
		Fallbacks:  rr.fallbacks,
	}, nil
}

// minFeasibleT binary-searches the minimal T whose constrained relaxation
// is feasible. The memory rows only shrink the (IP-3) relaxation, so
// relax.Bracket's lo bounds T_LP from below too; its hi, though, may fall
// to the memory rows, so the first probe tests it and an infeasible one
// moves the search up to the trivial bound. Every probe is a
// relax.Workspace.Verdict: it rebuilds into ws's problem, warm-starts
// from the previous probe's basis on ws's tableau and returns no vertex;
// each probe's LP polls ctx between pivots.
func minFeasibleT(ctx context.Context, r *relax.Relaxation, ws *relax.Workspace) (int64, error) {
	in := r.In
	lo, hi, _ := relax.Bracket(in, ws)
	if hi >= model.Infinity {
		return 0, fmt.Errorf("memcap: some job has no admissible set")
	}
	ok, err := ws.Verdict(ctx, r, hi)
	if err != nil {
		return 0, err
	}
	if trivial := in.TrivialUpperBound(); !ok && hi < trivial {
		lo, hi = hi+1, trivial
		if ok, err = ws.Verdict(ctx, r, hi); err != nil {
			return 0, err
		}
	}
	if !ok {
		return 0, fmt.Errorf("memcap: memory constraints fractionally infeasible at any makespan")
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
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
	return lo, nil
}

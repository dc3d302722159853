package lp

import (
	"math"
	"math/rand"
	"testing"

	"hsp/internal/testenv"
)

// randSpec is a randomly generated LP family: a fixed structure whose LE
// right-hand sides scale with a load factor, and whose variable set can
// be pruned — the two shapes of change the warm-start path must absorb
// (pure RHS moves, and binary-search pruning via subset matching).
type randSpec struct {
	nvars  int
	groups [][]int // EQ rows: sum of group = 1
	leIdx  [][]int // LE rows over variable indices
	leVal  [][]float64
	leRHS  []float64 // base rhs, scaled by the load factor
	obj    []float64
}

func genSpec(rng *rand.Rand) *randSpec {
	s := &randSpec{nvars: 2 + rng.Intn(10)}
	s.obj = make([]float64, s.nvars)
	if rng.Intn(2) == 0 { // half the specs are pure feasibility problems
		for i := range s.obj {
			s.obj[i] = math.Round(rng.Float64()*8) / 4
		}
	}
	perm := rng.Perm(s.nvars)
	for len(perm) > 0 {
		g := 1 + rng.Intn(3)
		if g > len(perm) {
			g = len(perm)
		}
		grp := append([]int(nil), perm[:g]...)
		perm = perm[g:]
		s.groups = append(s.groups, grp)
	}
	rows := 1 + rng.Intn(4)
	for r := 0; r < rows; r++ {
		var idx []int
		var val []float64
		for v := 0; v < s.nvars; v++ {
			if rng.Intn(3) > 0 {
				idx = append(idx, v)
				val = append(val, math.Round(rng.Float64()*40)/4+0.25)
			}
		}
		if len(idx) == 0 {
			continue
		}
		s.leIdx = append(s.leIdx, idx)
		s.leVal = append(s.leVal, val)
		s.leRHS = append(s.leRHS, math.Round(rng.Float64()*30)/2+1)
	}
	return s
}

// build materializes the spec at a load factor, keeping only variables
// with keep[v] (nil keeps all). A group must retain at least one
// variable, so build returns false when pruning emptied one — the
// caller stops there, as a real binary search's fast-negative path
// would before ever building the LP.
func (s *randSpec) build(load float64, keep []bool) (*Problem, bool) {
	remap := make([]int, s.nvars)
	var keys []uint64
	n := 0
	for v := 0; v < s.nvars; v++ {
		if keep == nil || keep[v] {
			remap[v] = n
			keys = append(keys, uint64(v))
			n++
		} else {
			remap[v] = -1
		}
	}
	p := NewProblem(n)
	p.SetVarKeys(keys)
	for v := 0; v < s.nvars; v++ {
		if remap[v] >= 0 {
			p.SetObjectiveCoeff(remap[v], s.obj[v])
		}
	}
	for _, grp := range s.groups {
		var idx []int
		var val []float64
		for _, v := range grp {
			if remap[v] >= 0 {
				idx = append(idx, remap[v])
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			return nil, false
		}
		p.MustAddConstraint(idx, val, EQ, 1)
	}
	for r := range s.leIdx {
		var idx []int
		var val []float64
		for k, v := range s.leIdx[r] {
			if remap[v] >= 0 {
				idx = append(idx, remap[v])
				val = append(val, s.leVal[r][k])
			}
		}
		if len(idx) > 0 {
			p.MustAddConstraint(idx, val, LE, s.leRHS[r]*load)
		}
	}
	return p, true
}

// checkAgainstCold solves p on the warm workspace and on a cold oracle
// and fails on any observable disagreement. Optimal vertices may differ
// between pivot paths when optima are non-unique, so the comparison is
// status, objective value, and feasibility of the returned point —
// never the vertex itself (witness consumers invalidate first and get
// the cold vertex; this test covers the verdict-only probe contract).
func checkAgainstCold(t *testing.T, p *Problem, warm, cold *Workspace) {
	t.Helper()
	solW, errW := p.Solve(nil, warm)
	solC, errC := p.Solve(nil, cold)
	if (errW == nil) != (errC == nil) {
		t.Fatalf("error disagreement: warm=%v cold=%v", errW, errC)
	}
	if errW != nil {
		return
	}
	if solW.Status != solC.Status {
		t.Fatalf("status disagreement: warm=%v cold=%v (warm path used: %v)", solW.Status, solC.Status, solW.Warm)
	}
	if solW.Status != Optimal {
		return
	}
	scale := 1 + math.Abs(solC.Objective)
	if math.Abs(solW.Objective-solC.Objective) > 1e-6*scale {
		t.Fatalf("objective disagreement: warm=%g cold=%g", solW.Objective, solC.Objective)
	}
	checkFeasible(t, p, solW.X)
}

// checkFeasible verifies x satisfies p's constraints within tolerance.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for _, v := range x {
		if v < -tol {
			t.Fatalf("negative variable %g", v)
		}
	}
	for i, c := range p.cons {
		sum := 0.0
		for k := 0; k < c.n; k++ {
			sum += p.vals[c.off+k] * x[p.idxs[c.off+k]]
		}
		slack := float64(1 + c.n)
		switch c.op {
		case LE:
			if sum > c.rhs+tol*(math.Abs(c.rhs)+slack) {
				t.Fatalf("row %d: %g > %g", i, sum, c.rhs)
			}
		case GE:
			if sum < c.rhs-tol*(math.Abs(c.rhs)+slack) {
				t.Fatalf("row %d: %g < %g", i, sum, c.rhs)
			}
		case EQ:
			if math.Abs(sum-c.rhs) > tol*(math.Abs(c.rhs)+slack) {
				t.Fatalf("row %d: %g != %g", i, sum, c.rhs)
			}
		}
	}
}

// TestDifferentialWarmVsColdLP sweeps each random spec through a
// binary-search-shaped load schedule on one warm workspace, checking
// every solve against a cold oracle: same status, same objective,
// feasible point. Warm-started solves and subset re-entries must be
// observationally identical to cold ones.
func TestDifferentialWarmVsColdLP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	loads := []float64{4, 2, 1, 0.5, 0.75, 0.6, 0.66, 1.5, 0.9, 3}
	for spec := 0; spec < 60; spec++ {
		s := genSpec(rng)
		warm := NewWorkspace()
		cold := NewWorkspace()
		cold.SetWarmStart(false)
		for _, load := range loads {
			p, ok := s.build(load, nil)
			if !ok {
				continue
			}
			checkAgainstCold(t, p, warm, cold)
		}
		st := warm.Stats()
		if st.WarmHits+st.WarmFallbacks+st.ColdSolves == 0 {
			t.Fatal("no solves recorded")
		}
	}
}

// TestDifferentialSubsetWarmStart prunes random variable subsets while
// shrinking the load — the exact shape of a minimizing binary search —
// and checks warm against cold at every step. This is the subset
// matcher's primary correctness gate.
func TestDifferentialSubsetWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var subsetHits int
	for spec := 0; spec < 120; spec++ {
		s := genSpec(rng)
		warm := NewWorkspace()
		cold := NewWorkspace()
		cold.SetWarmStart(false)
		keep := make([]bool, s.nvars)
		for v := range keep {
			keep[v] = true
		}
		load := 4.0
		for step := 0; step < 8; step++ {
			p, ok := s.build(load, keep)
			if !ok {
				break
			}
			checkAgainstCold(t, p, warm, cold)
			// Shrink: drop a random still-kept variable and lower the load.
			if v := rng.Intn(s.nvars); keep[v] {
				keep[v] = false
			}
			load *= 0.8
		}
		subsetHits += warm.Stats().SubsetHits
	}
	if subsetHits == 0 {
		t.Fatal("no subset warm hits across 120 specs — matcher never engaged")
	}
	t.Logf("subset warm hits: %d", subsetHits)
}

// TestWarmSolveSteadyStateAllocs pins the warm re-solve path at its
// contract minimum — the returned Solution and its X slice. The RHS
// changes every iteration so the dual re-entry actually pivots; the
// tableau, signature and mapping scratch must all be reused.
func TestWarmSolveSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	rng := rand.New(rand.NewSource(3))
	var s *randSpec
	var warm *Workspace
	for {
		s = genSpec(rng)
		warm = NewWorkspace()
		p, _ := s.build(1.5, nil)
		if sol, err := p.Solve(nil, warm); err == nil && sol.Status == Optimal {
			if sol, err = p.Solve(nil, warm); err == nil && sol.Warm {
				break // spec warms; use it
			}
		}
	}
	// Two prebuilt problems differing only in RHS, alternated so every
	// measured solve re-enters via dual pivots rather than a no-op match.
	pa, _ := s.build(1.5, nil)
	pb, _ := s.build(1.4, nil)
	probs := []*Problem{pa, pb}
	i := 0
	var solveErr error
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if _, err := probs[i%2].Solve(nil, warm); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	st := warm.Stats()
	if st.WarmHits == 0 {
		t.Fatal("warm path never engaged; test would measure the cold path")
	}
	if allocs > 2 {
		t.Errorf("warm re-solve allocates %v/op steady-state, want ≤ 2 (Solution + X)", allocs)
	}
}

package lp

import (
	"context"
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
}

func genSpec(rng *rand.Rand) *randSpec {
	s := &randSpec{nvars: 2 + rng.Intn(10)}
	if rng.Intn(2) == 0 {
		for range s.nvars {
			rng.Float64() // unused draws; the rows below depend on them
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

// checkVerdict compares p's Verdict on the warm workspace with a cold
// oracle Solve's status, and checks the oracle's vertex when it has one.
// Warm-started and subset re-entered verdicts must be observationally
// identical to cold ones; only Verdict ever re-enters a retained basis.
func checkVerdict(t *testing.T, p *Problem, warm, cold *Workspace) {
	t.Helper()
	ok, errV := p.Verdict(nil, warm)
	sol, errC := p.Solve(nil, cold)
	if (errV == nil) != (errC == nil) {
		t.Fatalf("error disagreement: verdict=%v cold=%v", errV, errC)
	}
	if errV != nil {
		return
	}
	if ok != (sol.Status != Infeasible) {
		t.Fatalf("verdict feasible=%t, cold status %v", ok, sol.Status)
	}
	if sol.Status == Optimal {
		checkFeasible(t, p, sol.X)
	}
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
// every Verdict against a cold oracle's status.
func TestDifferentialWarmVsColdLP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	loads := []float64{4, 2, 1, 0.5, 0.75, 0.6, 0.66, 1.5, 0.9, 3}
	for spec := 0; spec < 60; spec++ {
		s := genSpec(rng)
		warm := NewWorkspace()
		cold := NewWorkspace()
		for _, load := range loads {
			p, ok := s.build(load, nil)
			if !ok {
				continue
			}
			checkVerdict(t, p, warm, cold)
		}
		st := warm.Stats()
		if st.WarmHits+st.WarmFallbacks+st.ColdSolves == 0 {
			t.Fatal("no solves recorded")
		}
	}
}

// TestDifferentialSubsetWarmStart prunes random variable subsets while
// shrinking the load — the exact shape of a minimizing binary search —
// and checks the warm Verdict against cold at every step. This is the
// subset matcher's primary correctness gate.
func TestDifferentialSubsetWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var subsetHits int
	for spec := 0; spec < 120; spec++ {
		s := genSpec(rng)
		warm := NewWorkspace()
		cold := NewWorkspace()
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
			checkVerdict(t, p, warm, cold)
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

// TestWarmSolveSteadyStateAllocs pins the warm re-entry path at zero
// allocations: a Verdict returns no vertex, and the tableau, signature,
// mapping and verification scratch must all be reused. The RHS changes
// every iteration so the dual re-entry actually pivots.
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
		if ok, err := p.Verdict(nil, warm); err == nil && ok {
			if _, err = p.Verdict(nil, warm); err == nil && warm.Stats().WarmHits == 1 {
				break // spec warms; use it
			}
		}
	}
	// Two prebuilt problems differing only in RHS, both solved in every
	// run (AllocsPerRun truncates its average), so every measured verdict
	// re-enters via dual pivots rather than a no-op match.
	pa, _ := s.build(1.5, nil)
	pb, _ := s.build(1.4, nil)
	var solveErr error
	before := warm.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range []*Problem{pa, pb} {
			if _, err := p.Verdict(nil, warm); err != nil {
				solveErr = err
			}
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if st := warm.Stats(); st.WarmPivots == before.WarmPivots {
		t.Fatal("warm re-entries never pivoted; test would measure no-op matches")
	}
	if allocs != 0 {
		t.Errorf("warm Verdicts allocate %v per pair steady-state, want 0", allocs)
	}
}

// TestFallbackPivotsCounted forces a warm re-entry that falls back to
// the cold path and checks that its dual pivots land in Pivots. One job
// split over two machines, x1 + x2 = 1 and 2·x_i ≤ T, is feasible iff
// T ≥ 1. Anchored at T = 4 with x1 = 1 (phase 1's first entering
// column), the re-entry at T = 1 − 10⁻⁶ repairs machine 1's row with one
// dual pivot and is then left with a violation of 2·10⁻⁶ on machine 2's:
// an infeasibility too marginal to trust, which the warm path hands to
// the cold solve.
func TestFallbackPivotsCounted(t *testing.T) {
	build := func(T float64) *Problem {
		p := NewProblem(2)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 1)
		p.MustAddConstraint([]int{0}, []float64{2}, LE, T)
		p.MustAddConstraint([]int{1}, []float64{2}, LE, T)
		return p
	}
	ctx := context.Background()
	ws := NewWorkspace()
	if sol, err := build(4).Solve(ctx, ws); err != nil || sol.Status != Optimal {
		t.Fatalf("anchor: %v %v", sol, err)
	}
	cold, err := build(1-1e-6).Solve(ctx, nil)
	if err != nil || cold.Status != Infeasible {
		t.Fatalf("cold reference: %v %v", cold, err)
	}
	before := ws.Stats()
	ok, err := build(1-1e-6).Verdict(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	after := ws.Stats()
	if ok || after.WarmHits != before.WarmHits || after.ColdSolves != before.ColdSolves+1 {
		t.Fatalf("feasible=%t, counters %+v → %+v: want a cold infeasible verdict", ok, before, after)
	}
	if after.WarmFallbacks != before.WarmFallbacks+1 {
		t.Fatalf("fallbacks %d → %d, want one more", before.WarmFallbacks, after.WarmFallbacks)
	}
	// The cold solve's pivots are the reference's; the rest of the delta
	// is the fallen-back re-entry's.
	if fell := after.Pivots - before.Pivots - cold.Iterations; fell <= 0 {
		t.Fatalf("Pivots grew by %d for a %d-pivot cold solve: the fallback's dual pivots are missing",
			after.Pivots-before.Pivots, cold.Iterations)
	}
	if after.WarmPivots != before.WarmPivots {
		t.Fatalf("WarmPivots grew %d → %d without a warm hit", before.WarmPivots, after.WarmPivots)
	}
}

// TestUnkeyedSubsetReentry: a problem without SetVarKeys carries the
// identity keys, so one over the anchor's first columns, whose rows are
// the anchor's restricted to them, re-enters the anchor's basis with the
// other columns banned, and answers as the cold oracle does.
func TestUnkeyedSubsetReentry(t *testing.T) {
	// One job over two or three machines: x0 + x1 (+ x2) = 1, with
	// machine loads 2·x0 (+ 3·x2) ≤ T and 2·x1 (+ x2) ≤ T.
	build := func(n int, T float64) *Problem {
		p := NewProblem(n)
		p.MustAddConstraint([]int{0, 1, 2}[:n], []float64{1, 1, 1}[:n], EQ, 1)
		p.MustAddConstraint([]int{0, 2}[:n-1], []float64{2, 3}[:n-1], LE, T)
		p.MustAddConstraint([]int{1, 2}[:n-1], []float64{2, 1}[:n-1], LE, T)
		return p
	}
	warm, cold := NewWorkspace(), NewWorkspace()
	checkVerdict(t, build(3, 4), warm, cold)
	for _, T := range []float64{1.5, 0.9} {
		checkVerdict(t, build(2, T), warm, cold)
	}
	if st := warm.Stats(); st.SubsetHits == 0 {
		t.Fatalf("unkeyed 2-column problems never re-entered the 3-column anchor: %+v", st)
	}
}

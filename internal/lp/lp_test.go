package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOrDie(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSimpleMinimization(t *testing.T) {
	// min x0 + 2 x1  s.t.  x0 + x1 >= 4, x0 <= 3. Optimum: x0=3, x1=1, obj=5.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, GE, 4)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 3)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-5) > 1e-7 {
		t.Fatalf("objective = %v, want 5", sol.Objective)
	}
	if math.Abs(sol.X[0]-3) > 1e-7 || math.Abs(sol.X[1]-1) > 1e-7 {
		t.Fatalf("x = %v, want [3 1]", sol.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x0  s.t.  x0 + x1 = 2, x0 - x1 = 0  ->  x0 = x1 = 1.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, -1}, EQ, 0)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[0]-1) > 1e-7 || math.Abs(sol.X[1]-1) > 1e-7 {
		t.Fatalf("got %v %v", sol.Status, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	sol := solveOrDie(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleNegativeRHSEquality(t *testing.T) {
	// x0 + x1 = -1 with x >= 0 is infeasible.
	p := NewProblem(2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, -1)
	sol := solveOrDie(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x0 with x0 only bounded below.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, -1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 0)
	sol := solveOrDie(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x0 <= -3  <=>  x0 >= 3.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.MustAddConstraint([]int{0}, []float64{-1}, LE, -3)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[0]-3) > 1e-7 {
		t.Fatalf("got %v %v", sol.Status, sol.X)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equalities leave a redundant row; the artificial stays
	// basic at zero and the solve must still succeed.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{2, 2}, EQ, 4)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-7 {
		t.Fatalf("got %v obj=%v", sol.Status, sol.Objective)
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's classic cycling example; Bland fallback must terminate.
	// min -0.75 x0 + 150 x1 - 0.02 x2 + 6 x3
	// s.t. 0.25 x0 - 60 x1 - 0.04 x2 + 9 x3 <= 0
	//      0.5  x0 - 90 x1 - 0.02 x2 + 3 x3 <= 0
	//      x2 <= 1
	// Optimum -0.05 at x = (0.04/0.8.., ...) -> objective -1/20.
	p := NewProblem(4)
	for i, c := range []float64{-0.75, 150, -0.02, 6} {
		p.SetObjectiveCoeff(i, c)
	}
	p.MustAddConstraint([]int{0, 1, 2, 3}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.MustAddConstraint([]int{0, 1, 2, 3}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.MustAddConstraint([]int{2}, []float64{1}, LE, 1)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("got %v obj=%v, want optimal -0.05", sol.Status, sol.Objective)
	}
}

func TestLargeCoefficientScaling(t *testing.T) {
	// Mixing O(1e9) load rows with O(1) rows exercises row equilibration.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{2e9, 1e9}, GE, 3e9)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 2)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Feasible: x0 + x1 <= 2, 2 x0 + x1 >= 3 -> min x0 = 1 (x1 = 1).
	if math.Abs(sol.X[0]-1) > 1e-6 {
		t.Fatalf("x = %v, want x0 = 1", sol.X)
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.AddConstraint([]int{0}, []float64{1, 2}, LE, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := p.AddConstraint([]int{2}, []float64{1}, LE, 1); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := p.AddConstraint([]int{0, 0}, []float64{1, 1}, LE, 1); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

func TestZeroVariableProblem(t *testing.T) {
	p := NewProblem(0)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("empty problem: %v", sol)
	}
}

// TestFeasibleHelper: Verdict, the feasibility-only solve, reports a
// feasible system and an infeasible one as such on a nil workspace.
func TestFeasibleHelper(t *testing.T) {
	p := NewProblem(1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	ok, err := p.Verdict(context.Background(), nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	q := NewProblem(1)
	q.MustAddConstraint([]int{0}, []float64{1}, LE, -1)
	ok, err = q.Verdict(context.Background(), nil)
	if err != nil || ok {
		t.Fatalf("infeasible problem reported feasible")
	}
}

// bruteForceOpt enumerates all candidate vertices of a small LP by solving
// every square subsystem of tight constraints (including x_i = 0 planes) by
// Gaussian elimination, and returns the best feasible objective.
func bruteForceOpt(nvars int, obj []float64, rows [][]float64, ops []Op, rhs []float64) (float64, bool) {
	// Build the pool of hyperplanes: one per constraint plus x_i = 0.
	type plane struct {
		a []float64
		b float64
	}
	var planes []plane
	for r := range rows {
		planes = append(planes, plane{rows[r], rhs[r]})
	}
	for i := 0; i < nvars; i++ {
		a := make([]float64, nvars)
		a[i] = 1
		planes = append(planes, plane{a, 0})
	}
	feasible := func(x []float64) bool {
		for i := range x {
			if x[i] < -1e-7 {
				return false
			}
		}
		for r := range rows {
			s := 0.0
			for i := range x {
				s += rows[r][i] * x[i]
			}
			switch ops[r] {
			case LE:
				if s > rhs[r]+1e-7 {
					return false
				}
			case GE:
				if s < rhs[r]-1e-7 {
					return false
				}
			case EQ:
				if math.Abs(s-rhs[r]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	best := math.Inf(1)
	found := false
	idx := make([]int, nvars)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == nvars {
			// Solve the k×k system.
			a := make([][]float64, nvars)
			b := make([]float64, nvars)
			for i, pi := range idx[:nvars] {
				a[i] = append([]float64(nil), planes[pi].a...)
				b[i] = planes[pi].b
			}
			x, ok := gauss(a, b)
			if !ok || !feasible(x) {
				return
			}
			v := 0.0
			for i := range x {
				v += obj[i] * x[i]
			}
			if v < best {
				best = v
			}
			found = true
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

func gauss(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv, pv := -1, 1e-9
		for r := col; r < n; r++ {
			if av := math.Abs(a[r][col]); av > pv {
				piv, pv = r, av
			}
		}
		if piv < 0 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for j := col; j < n; j++ {
			a[col][j] *= inv
		}
		b[col] *= inv
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := col; j < n; j++ {
				a[r][j] -= f * a[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	return b, true
}

func TestSimplexAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(3)
		ncons := 1 + rng.Intn(3)
		obj := make([]float64, nvars)
		for i := range obj {
			obj[i] = float64(rng.Intn(11) - 5)
		}
		rows := make([][]float64, ncons)
		ops := make([]Op, ncons)
		rhs := make([]float64, ncons)
		p := NewProblem(nvars)
		for i, c := range obj {
			p.SetObjectiveCoeff(i, c)
		}
		for r := 0; r < ncons; r++ {
			rows[r] = make([]float64, nvars)
			idx := make([]int, 0, nvars)
			val := make([]float64, 0, nvars)
			for i := 0; i < nvars; i++ {
				v := float64(rng.Intn(7) - 3)
				rows[r][i] = v
				if v != 0 {
					idx = append(idx, i)
					val = append(val, v)
				}
			}
			switch rng.Intn(5) {
			case 0:
				ops[r] = EQ
			case 1, 2:
				ops[r] = GE
			default:
				ops[r] = LE
			}
			rhs[r] = float64(rng.Intn(9) - 2)
			p.MustAddConstraint(idx, val, ops[r], rhs[r])
		}
		sol, err := p.Solve(context.Background(), nil)
		if err != nil {
			t.Logf("seed %d: solve error %v", seed, err)
			return false
		}
		want, feasible := bruteForceOpt(nvars, obj, rows, ops, rhs)
		switch sol.Status {
		case Infeasible:
			if feasible {
				t.Logf("seed %d: simplex infeasible but brute force found %v", seed, want)
				return false
			}
			return true
		case Unbounded:
			// Brute force cannot certify unboundedness; accept.
			return true
		case Optimal:
			if !feasible {
				t.Logf("seed %d: simplex optimal %v but brute force infeasible", seed, sol.Objective)
				return false
			}
			if sol.Objective > want+1e-5 {
				t.Logf("seed %d: simplex %v worse than brute force %v", seed, sol.Objective, want)
				return false
			}
			// Simplex may also be better than the brute force only if the
			// LP is unbounded in a direction brute force missed; verify the
			// solution is genuinely feasible.
			for r := range rows {
				s := 0.0
				for i := range sol.X {
					s += rows[r][i] * sol.X[i]
				}
				if ops[r] == LE && s > rhs[r]+1e-5 {
					return false
				}
				if ops[r] == GE && s < rhs[r]-1e-5 {
					return false
				}
			}
			return true
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexSolutionSupport(t *testing.T) {
	// A basic solution has at most (#rows) nonzero variables.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nvars := 4 + rng.Intn(8)
		ncons := 1 + rng.Intn(4)
		p := NewProblem(nvars)
		for i := 0; i < nvars; i++ {
			p.SetObjectiveCoeff(i, float64(rng.Intn(5)))
		}
		for r := 0; r < ncons; r++ {
			idx := make([]int, nvars)
			val := make([]float64, nvars)
			for i := 0; i < nvars; i++ {
				idx[i] = i
				val[i] = 1 + float64(rng.Intn(4))
			}
			p.MustAddConstraint(idx, val, GE, float64(1+rng.Intn(10)))
		}
		sol := solveOrDie(t, p)
		if sol.Status != Optimal {
			continue
		}
		nonzero := 0
		for _, v := range sol.X {
			if v > 1e-9 {
				nonzero++
			}
		}
		if nonzero > ncons {
			t.Fatalf("trial %d: %d nonzeros exceeds %d rows (not a vertex)", trial, nonzero, ncons)
		}
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	nvars, ncons := 400, 60
	build := func() *Problem {
		p := NewProblem(nvars)
		for i := 0; i < nvars; i++ {
			p.SetObjectiveCoeff(i, rng.Float64())
		}
		for r := 0; r < ncons; r++ {
			idx := make([]int, 0, 20)
			val := make([]float64, 0, 20)
			for k := 0; k < 20; k++ {
				i := rng.Intn(nvars)
				dup := false
				for _, e := range idx {
					if e == i {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				idx = append(idx, i)
				val = append(val, 1+rng.Float64())
			}
			p.MustAddConstraint(idx, val, GE, 5)
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

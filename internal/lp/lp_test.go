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

// objectiveCut is the feasibility form of "min c·x has optimum opt":
// with the row c·x ≤ opt the problem is feasible, and with c·x ≤ opt−δ
// it is not. build returns a fresh copy of the problem without the row.
func objectiveCut(t *testing.T, build func() *Problem, c []float64, opt float64) *Solution {
	t.Helper()
	const delta = 1e-3
	cut := func(bound float64) *Problem {
		p := build()
		var idx []int
		var val []float64
		for i, v := range c {
			if v != 0 {
				idx = append(idx, i)
				val = append(val, v)
			}
		}
		p.MustAddConstraint(idx, val, LE, bound)
		return p
	}
	sol := solveOrDie(t, cut(opt))
	if sol.Status != Optimal {
		t.Fatalf("c·x ≤ %v: status %v, want feasible", opt, sol.Status)
	}
	if below := solveOrDie(t, cut(opt-delta)); below.Status != Infeasible {
		t.Fatalf("c·x ≤ %v: status %v, want infeasible below the optimum", opt-delta, below.Status)
	}
	return sol
}

func TestSimpleMinimization(t *testing.T) {
	// min x0 + 2 x1  s.t.  x0 + x1 >= 4, x0 <= 3. Optimum: x0=3, x1=1, obj=5,
	// the one point left once x0 + 2 x1 <= 5 is a row.
	build := func() *Problem {
		p := NewProblem(2)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, GE, 4)
		p.MustAddConstraint([]int{0}, []float64{1}, LE, 3)
		return p
	}
	sol := objectiveCut(t, build, []float64{1, 2}, 5)
	if math.Abs(sol.X[0]-3) > 1e-7 || math.Abs(sol.X[1]-1) > 1e-7 {
		t.Fatalf("x = %v, want [3 1]", sol.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// x0 + x1 = 2, x0 - x1 = 0  ->  x0 = x1 = 1.
	p := NewProblem(2)
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
	// min -x0 with x0 only bounded below is unbounded: -x0 <= -1e6 is
	// feasible.
	p := NewProblem(1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 0)
	p.MustAddConstraint([]int{0}, []float64{-1}, LE, -1e6)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || sol.X[0] < 1e6-1e-3 {
		t.Fatalf("got %v %v, want a feasible x0 >= 1e6", sol.Status, sol.X)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x0 <= -3  <=>  x0 >= 3.
	p := NewProblem(1)
	p.MustAddConstraint([]int{0}, []float64{-1}, LE, -3)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[0]-3) > 1e-7 {
		t.Fatalf("got %v %v", sol.Status, sol.X)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equalities leave a redundant row; the artificial stays
	// basic at zero and the solve must still succeed. min x0 + x1 is 2.
	build := func() *Problem {
		p := NewProblem(2)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 2)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 2)
		p.MustAddConstraint([]int{0, 1}, []float64{2, 2}, EQ, 4)
		return p
	}
	objectiveCut(t, build, []float64{1, 1}, 2)
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's classic cycling example; Bland fallback must terminate.
	// min -0.75 x0 + 150 x1 - 0.02 x2 + 6 x3
	// s.t. 0.25 x0 - 60 x1 - 0.04 x2 + 9 x3 <= 0
	//      0.5  x0 - 90 x1 - 0.02 x2 + 3 x3 <= 0
	//      x2 <= 1
	// Optimum -0.05 at x = (0.04/0.8.., ...) -> objective -1/20. The
	// objective row's right-hand side is negative, so it takes an
	// artificial and phase 1 walks Beale's degenerate path.
	build := func() *Problem {
		p := NewProblem(4)
		p.MustAddConstraint([]int{0, 1, 2, 3}, []float64{0.25, -60, -0.04, 9}, LE, 0)
		p.MustAddConstraint([]int{0, 1, 2, 3}, []float64{0.5, -90, -0.02, 3}, LE, 0)
		p.MustAddConstraint([]int{2}, []float64{1}, LE, 1)
		return p
	}
	objectiveCut(t, build, []float64{-0.75, 150, -0.02, 6}, -0.05)
}

func TestLargeCoefficientScaling(t *testing.T) {
	// Mixing O(1e9) load rows with O(1) rows exercises row equilibration.
	// Feasible: x0 + x1 <= 2, 2 x0 + x1 >= 3 -> min x0 = 1 (x1 = 1).
	build := func() *Problem {
		p := NewProblem(2)
		p.MustAddConstraint([]int{0, 1}, []float64{2e9, 1e9}, GE, 3e9)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 2)
		return p
	}
	sol := objectiveCut(t, build, []float64{1, 0}, 1)
	if math.Abs(sol.X[0]-1) > 1e-6 || math.Abs(sol.X[1]-1) > 1e-6 {
		t.Fatalf("x = %v, want [1 1]", sol.X)
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
	if sol.Status != Optimal || len(sol.X) != 0 {
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
// Gaussian elimination, and returns the best feasible objective over them.
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

// TestSimplexAgainstBruteForce checks Solve's verdict and vertex on small
// random LPs against vertex enumeration, and, where min c·x is bounded,
// that the row c·x ≤ OPT keeps the problem feasible and c·x ≤ OPT−δ
// does not. min c·x is unbounded exactly when some direction d ≥ 0 with
// Σd = 1 and A·d {≤,=,≥} 0 has c·d < 0, which is another enumerable LP.
func TestSimplexAgainstBruteForce(t *testing.T) {
	const delta = 1e-3
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
		for r := 0; r < ncons; r++ {
			rows[r] = make([]float64, nvars)
			for i := 0; i < nvars; i++ {
				rows[r][i] = float64(rng.Intn(7) - 3)
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
		}
		// solve builds the rows, plus the row obj·x ≤ bound when cut.
		solve := func(cut bool, bound float64) *Solution {
			p := NewProblem(nvars)
			add := func(row []float64, op Op, b float64) {
				var idx []int
				var val []float64
				for i, v := range row {
					if v != 0 {
						idx = append(idx, i)
						val = append(val, v)
					}
				}
				p.MustAddConstraint(idx, val, op, b)
			}
			for r := range rows {
				add(rows[r], ops[r], rhs[r])
			}
			if cut {
				add(obj, LE, bound)
			}
			sol, err := p.Solve(context.Background(), nil)
			if err != nil {
				t.Logf("seed %d: solve error %v", seed, err)
				return nil
			}
			return sol
		}
		sol := solve(false, 0)
		if sol == nil {
			return false
		}
		want, feasible := bruteForceOpt(nvars, obj, rows, ops, rhs)
		if (sol.Status == Optimal) != feasible {
			t.Logf("seed %d: simplex %v, brute force feasible=%t", seed, sol.Status, feasible)
			return false
		}
		if !feasible {
			return true
		}
		for r := range rows {
			s := 0.0
			for i := range sol.X {
				s += rows[r][i] * sol.X[i]
			}
			if ops[r] == LE && s > rhs[r]+1e-5 || ops[r] == GE && s < rhs[r]-1e-5 ||
				ops[r] == EQ && math.Abs(s-rhs[r]) > 1e-5 {
				t.Logf("seed %d: vertex %v violates row %d", seed, sol.X, r)
				return false
			}
		}
		// The recession directions, normalized onto the simplex Σd = 1.
		rec := append([][]float64{}, rows...)
		recOps := append([]Op{}, ops...)
		ones := make([]float64, nvars)
		for i := range ones {
			ones[i] = 1
		}
		rec = append(rec, ones)
		recOps = append(recOps, EQ)
		recRHS := make([]float64, len(rec))
		recRHS[len(rec)-1] = 1
		if down, ok := bruteForceOpt(nvars, obj, rec, recOps, recRHS); ok && down < -1e-9 {
			// Unbounded: any bound is reachable.
			if s := solve(true, want-1e3); s == nil || s.Status != Optimal {
				t.Logf("seed %d: unbounded min, but obj·x ≤ %v infeasible", seed, want-1e3)
				return false
			}
			return true
		}
		at, below := solve(true, want), solve(true, want-delta)
		if at == nil || below == nil {
			return false
		}
		if at.Status != Optimal || below.Status != Infeasible {
			t.Logf("seed %d: optimum %v: obj·x ≤ OPT %v, ≤ OPT−δ %v", seed, want, at.Status, below.Status)
			return false
		}
		return true
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
		for range nvars {
			rng.Intn(5) // unused draws; the polyhedra below depend on them
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
		for range nvars {
			rng.Float64() // unused draws; the rows below depend on them
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

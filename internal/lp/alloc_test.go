package lp

import (
	"testing"

	"hsp/internal/testenv"
)

// allocLP builds a representative assignment-shaped feasibility LP
// in-package (the real (IP-3) builders live above lp in the import
// graph): one EQ row per job over its machine variables, one LE load row
// per machine. The EQ rows force artificials, so a solve exercises both
// phases. Coefficients come from a fixed LCG so the test is
// deterministic.
func allocLP(tb testing.TB) *Problem {
	tb.Helper()
	const jobs, machines = 12, 4
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng>>33)%91 + 10 // [10, 100]
	}
	p := NewProblem(jobs * machines)
	proc := make([][]int64, jobs)
	var total int64
	for j := range proc {
		proc[j] = make([]int64, machines)
		for i := range proc[j] {
			proc[j][i] = next()
			total += proc[j][i]
		}
	}
	idx := make([]int, 0, jobs*machines)
	val := make([]float64, 0, jobs*machines)
	for j := 0; j < jobs; j++ {
		idx, val = idx[:0], val[:0]
		for i := 0; i < machines; i++ {
			idx = append(idx, j*machines+i)
			val = append(val, 1)
		}
		p.MustAddConstraint(idx, val, EQ, 1)
	}
	T := float64(total) / float64(jobs*machines) * float64(jobs) / machines * 1.3
	for i := 0; i < machines; i++ {
		idx, val = idx[:0], val[:0]
		for j := 0; j < jobs; j++ {
			idx = append(idx, j*machines+i)
			val = append(val, float64(proc[j][i]))
		}
		p.MustAddConstraint(idx, val, LE, T)
	}
	return p
}

// tabSnapshot captures everything tableau.iterate mutates, so the pivot
// loop can be replayed from identical state without re-running init.
type tabSnapshot struct {
	a, rhs, cost []float64
	basis        []int
	degenStreak  int
	blandMode    bool
}

func snapshot(t *tableau) *tabSnapshot {
	s := &tabSnapshot{
		a:           append([]float64(nil), t.a...),
		rhs:         append([]float64(nil), t.rhs...),
		cost:        append([]float64(nil), t.cost...),
		basis:       append([]int(nil), t.basis...),
		degenStreak: t.degenStreak,
		blandMode:   t.blandMode,
	}
	return s
}

func (s *tabSnapshot) restore(t *tableau) {
	copy(t.a, s.a)
	copy(t.rhs, s.rhs)
	copy(t.cost, s.cost)
	copy(t.basis, s.basis)
	t.degenStreak = s.degenStreak
	t.blandMode = s.blandMode
}

// TestPivotLoopAllocFree pins the simplex pivot loop — the innermost LP
// hot path — at zero allocations: the phase-1 iterate is replayed from a
// snapshot of the freshly built tableau, so only chooseEntering,
// chooseLeaving and pivot run inside the measured region.
func TestPivotLoopAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	p := allocLP(t)
	ws := NewWorkspace()
	tab := &ws.t
	tab.init(p)
	if tab.nart == 0 {
		t.Fatal("want artificial variables so phase 1 pivots")
	}
	snap := snapshot(tab)
	// Sanity: the replayed phase must pivot and terminate cleanly.
	it, err := tab.iterate()
	if err != nil {
		t.Fatal(err)
	}
	if it == 0 {
		t.Fatal("phase 1 did not pivot; test would measure nothing")
	}
	var iterErr error
	allocs := testing.AllocsPerRun(10, func() {
		snap.restore(tab)
		if _, err := tab.iterate(); err != nil {
			iterErr = err
		}
	})
	if iterErr != nil {
		t.Fatal(iterErr)
	}
	if allocs != 0 {
		t.Errorf("pivot loop allocates %v/op steady-state, want 0", allocs)
	}
}

// TestSolveWSSteadyStateAllocs pins a full re-solve on a warmed
// Workspace at its contract minimum: exactly the returned *Solution and
// its fresh X slice (results must survive workspace reuse), nothing for
// the tableau.
func TestSolveWSSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	p := allocLP(t)
	ws := NewWorkspace()
	if sol, err := p.Solve(nil, ws); err != nil || sol.Status != Optimal {
		t.Fatalf("warmup: sol=%+v err=%v", sol, err)
	}
	var solveErr error
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.Solve(nil, ws); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs > 2 {
		t.Errorf("steady-state Solve allocates %v/op, want ≤ 2 (Solution + X)", allocs)
	}
}

// TestProblemRebuildAllocFree pins the Reset-and-rebuild path the
// relaxation binary searches use: once the constraint arenas have grown,
// rebuilding an identical problem allocates nothing.
func TestProblemRebuildAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	p := allocLP(t)
	nvars := p.NumVars()
	idx := make([]int, 8)
	val := make([]float64, 8)
	rebuild := func() {
		p.Reset(nvars)
		for c := 0; c < 20; c++ {
			for k := range idx {
				idx[k] = (c*8 + k) % nvars
				val[k] = float64(k + 1)
			}
			p.MustAddConstraint(idx, val, LE, 100)
		}
	}
	rebuild() // grow the arenas to steady state
	if allocs := testing.AllocsPerRun(10, rebuild); allocs != 0 {
		t.Errorf("Reset+rebuild allocates %v/op steady-state, want 0", allocs)
	}
}

package lp

import (
	"context"
	"testing"
)

// rhsPair builds two problems that differ only in their right-hand sides,
// so a workspace holding the first one's basis would warm-start the second.
func rhsPair() (a, b *Problem) {
	build := func(r0, r1 float64) *Problem {
		p := NewProblem(2)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 2}, LE, r0)
		p.MustAddConstraint([]int{0, 1}, []float64{3, 1}, LE, r1)
		p.SetObjectiveCoeff(0, -1)
		p.SetObjectiveCoeff(1, -1)
		return p
	}
	return build(4, 6), build(5, 6)
}

// TestNilWorkspaceSolveIsCold: a nil workspace is a private one for that
// solve alone, so a nil-workspace solve never warm-starts, whatever was
// solved before it — its vertex may not depend on who solved first.
func TestNilWorkspaceSolveIsCold(t *testing.T) {
	ctx := context.Background()
	a, b := rhsPair()

	// The pair does warm-start on a caller-held workspace.
	held := NewWorkspace()
	for _, p := range []*Problem{a, b} {
		if sol, err := p.Solve(ctx, held); err != nil || sol.Status != Optimal {
			t.Fatalf("caller-held solve: %v %v", sol, err)
		}
	}
	if held.Stats().WarmHits != 1 {
		t.Fatalf("caller-held B after A: %+v, want one warm hit", held.Stats())
	}

	// The same sequence without a workspace solves both cold, every time.
	for i := 0; i < 4; i++ {
		for _, p := range []*Problem{a, b} {
			sol, err := p.Solve(ctx, nil)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("nil-workspace solve: %v %v", sol, err)
			}
			if sol.Warm {
				t.Fatalf("nil-workspace solve %d warm-started", i)
			}
		}
	}
	if held.Stats().WarmHits != 1 {
		t.Fatalf("nil-workspace solves touched a caller's workspace: %+v", held.Stats())
	}
}

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

// TestPooledSolveNeverWarmStarts: a workspace that reaches the internal
// pool still holding a caller's basis must not warm-start a nil-workspace
// solve — pooled witnesses may not depend on who solved before them.
func TestPooledSolveNeverWarmStarts(t *testing.T) {
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

	// Repeat the hand-off a few times: the race detector's pool drops
	// some Puts, and one handed-over workspace is enough to catch a leak.
	for i := 0; i < 8; i++ {
		w := NewWorkspace()
		if sol, err := a.Solve(ctx, w); err != nil || sol.Status != Optimal {
			t.Fatalf("anchor solve: %v %v", sol, err)
		}
		wsPool.Put(w)
		sol, err := b.Solve(ctx, nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("pooled solve: %v %v", sol, err)
		}
		if sol.Warm || w.Stats().WarmHits != 0 {
			t.Fatalf("pooled solve warm-started from a pooled basis: warm=%v stats=%+v", sol.Warm, w.Stats())
		}
	}
}

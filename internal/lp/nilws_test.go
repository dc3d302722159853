package lp

import (
	"context"
	"testing"
)

// rhsPair builds two problems that differ only in their right-hand sides,
// so a workspace holding the first one's basis would warm-start the second.
// The third row is the objective max x0 + x1 as a cut below both optima
// (2.8 and 3.2), so phase 1 has an artificial to drive out.
func rhsPair() (a, b *Problem) {
	build := func(r0, r1 float64) *Problem {
		p := NewProblem(2)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 2}, LE, r0)
		p.MustAddConstraint([]int{0, 1}, []float64{3, 1}, LE, r1)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, GE, 2.5)
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

	// The pair does warm-start a Verdict on a caller-held workspace.
	held := NewWorkspace()
	if sol, err := a.Solve(ctx, held); err != nil || sol.Status != Optimal {
		t.Fatalf("caller-held solve: %v %v", sol, err)
	}
	if ok, err := b.Verdict(ctx, held); err != nil || !ok {
		t.Fatalf("caller-held verdict: %v %v", ok, err)
	}
	if held.Stats().WarmHits != 1 {
		t.Fatalf("caller-held B after A: %+v, want one warm hit", held.Stats())
	}

	// Each problem's cold pivot count, on a fresh workspace of its own.
	coldPivots := map[*Problem]int{}
	for _, p := range []*Problem{a, b} {
		ws := NewWorkspace()
		if _, err := p.Solve(ctx, ws); err != nil {
			t.Fatal(err)
		}
		if st := ws.Stats(); st.ColdSolves != 1 || st.WarmHits != 0 {
			t.Fatalf("fresh workspace: %+v, want one cold solve", st)
		}
		coldPivots[p] = ws.Stats().Pivots
	}

	// The same sequence without a workspace solves both cold, every time.
	for i := 0; i < 4; i++ {
		for _, p := range []*Problem{a, b} {
			if _, err := p.Verdict(ctx, nil); err != nil {
				t.Fatal(err)
			}
			sol, err := p.Solve(ctx, nil)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("nil-workspace solve: %v %v", sol, err)
			}
			if sol.Iterations != coldPivots[p] {
				t.Fatalf("nil-workspace solve %d pivoted %d times, cold %d", i, sol.Iterations, coldPivots[p])
			}
		}
	}
	if held.Stats().WarmHits != 1 {
		t.Fatalf("nil-workspace solves touched a caller's workspace: %+v", held.Stats())
	}
}

// TestSolveAfterSolveIsCold: Solve never re-enters a retained basis, not
// even the optimal one an exact Solve left: on one workspace, a Solve of
// an RHS-only variant after a Solve counts no warm hit and returns a
// fresh workspace's vertex bit for bit.
func TestSolveAfterSolveIsCold(t *testing.T) {
	ctx := context.Background()
	a, b := rhsPair()
	ws := NewWorkspace()
	if sol, err := a.Solve(ctx, ws); err != nil || sol.Status != Optimal {
		t.Fatalf("anchor: %v %v", sol, err)
	}
	before := ws.Stats()
	got, err := b.Solve(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st := ws.Stats(); st.WarmHits != before.WarmHits || st.ColdSolves != before.ColdSolves+1 {
		t.Fatalf("Solve after Solve: counters %+v → %+v, want one more cold solve", before, st)
	}
	want, err := b.Solve(ctx, NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || len(got.X) != len(want.X) {
		t.Fatalf("status %v, fresh %v", got.Status, want.Status)
	}
	for i := range got.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("x[%d] = %g, fresh %g", i, got.X[i], want.X[i])
		}
	}
}

package lp

import (
	"context"
	"errors"
	"testing"
)

// TestSolveCtxCanceled: a pre-canceled context aborts the solve at the
// first pivot with an error identifying the cancellation.
func TestSolveCtxCanceled(t *testing.T) {
	p := NewProblem(3)
	p.MustAddConstraint([]int{0, 1, 2}, []float64{1, 1, 1}, GE, 1)
	p.SetObjectiveCoeff(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Solve(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v, want context.Canceled", err)
	}
	// The same problem still solves under a live context.
	sol, err := p.Solve(context.Background(), nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("background solve failed: %v %v", sol, err)
	}
}

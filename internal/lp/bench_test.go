package lp_test

import (
	"context"
	"testing"

	"hsp/internal/lp"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// benchProblem builds a representative (IP-3) feasibility LP: the exact
// shape the Section V binary search re-solves dozens of times per
// instance. The returned T is feasible, so Solve exercises both phases
// to optimality rather than bailing out infeasible.
func benchProblem(b *testing.B, jobs int) *lp.Problem {
	b.Helper()
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
		Jobs: jobs, Seed: 42, MinWork: 10, MaxWork: 100,
		SpeedSpread: 0.5, OverheadPerLevel: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	ins := in.WithSingletons()
	T, _, err := relax.MinFeasibleT(context.Background(), ins, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := relax.BuildFeasibility(ins, T)
	return p
}

// BenchmarkSolve is the per-probe cost of the LP oracle with the
// pool-backed workspace path: one tableau build plus the full two-phase
// pivot loop.
func BenchmarkSolve(b *testing.B) {
	p := benchProblem(b, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSolveWS is BenchmarkSolve with a caller-held Workspace — the
// steady state of the Section V binary search, where every re-solve
// reuses the previous tableau's backing arrays.
func BenchmarkSolveWS(b *testing.B) {
	p := benchProblem(b, 24)
	ws := lp.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(nil, ws)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
